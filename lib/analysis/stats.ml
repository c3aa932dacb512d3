type summary = {
  count : int;
  min : int;
  max : int;
  mean : float;
  stddev : float;
  median : float;
  p90 : float;
  p99 : float;
  total : int;
}

let percentile samples p =
  if Array.length samples = 0 then
    invalid_arg "Stats.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy samples in
  Array.sort Int.compare sorted;
  let n = Array.length sorted in
  if n = 1 then float_of_int sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ((1. -. frac) *. float_of_int sorted.(lo))
    +. (frac *. float_of_int sorted.(hi))
  end

let summarize samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let total = Array.fold_left ( + ) 0 samples in
  let mean = float_of_int total /. float_of_int n in
  let var =
    Array.fold_left
      (fun acc x ->
        let d = float_of_int x -. mean in
        acc +. (d *. d))
      0. samples
    /. float_of_int n
  in
  {
    count = n;
    min = Array.fold_left min samples.(0) samples;
    max = Array.fold_left max samples.(0) samples;
    mean;
    stddev = sqrt var;
    median = percentile samples 50.;
    p90 = percentile samples 90.;
    p99 = percentile samples 99.;
    total;
  }

let gini samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.gini: empty sample";
  let sorted = Array.map float_of_int samples in
  Array.sort Float.compare sorted;
  let total = Array.fold_left ( +. ) 0. sorted in
  if Float.equal total 0. then 0.
  else begin
    (* G = (2 * sum_i i*x_i) / (n * sum x) - (n+1)/n with 1-based ranks on
       ascending data. *)
    let weighted = ref 0. in
    Array.iteri
      (fun i x -> weighted := !weighted +. (float_of_int (i + 1) *. x))
      sorted;
    let nf = float_of_int n in
    (2. *. !weighted /. (nf *. total)) -. ((nf +. 1.) /. nf)
  end

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d min=%d max=%d mean=%.2f sd=%.2f median=%.1f p90=%.1f p99=%.1f \
     total=%d"
    s.count s.min s.max s.mean s.stddev s.median s.p90 s.p99 s.total
