type t = { lo : int; width : int; counts : int array }

let of_samples ?(buckets = 12) samples =
  if Array.length samples = 0 then
    invalid_arg "Histogram.of_samples: empty sample";
  if buckets < 1 then invalid_arg "Histogram.of_samples: buckets < 1";
  let lo = Array.fold_left min samples.(0) samples in
  let hi = Array.fold_left max samples.(0) samples in
  let width = max 1 (((hi - lo) / buckets) + 1) in
  let counts = Array.make buckets 0 in
  Array.iter
    (fun x ->
      let b = min (buckets - 1) ((x - lo) / width) in
      counts.(b) <- counts.(b) + 1)
    samples;
  { lo; width; counts }

let bucket_counts t =
  Array.to_list
    (Array.mapi
       (fun i c ->
         let lo = t.lo + (i * t.width) in
         (lo, lo + t.width - 1, c))
       t.counts)

(* In-place merge sort of a float array under [Float.compare]. Written
   for [float array], so each comparison reads two unboxed floats;
   [Array.sort Float.compare] is polymorphic and boxes both. *)
let sort_floats (a : float array) =
  let tmp = Array.create_float (Array.length a) in
  let rec sort lo hi =
    if hi - lo > 1 then begin
      let mid = (lo + hi) / 2 in
      sort lo mid;
      sort mid hi;
      (* Merge the left half, moved to [tmp], with the right half in
         place; what is left of the left half goes last. *)
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid && !j < hi do
        if Float.compare tmp.(!i) a.(!j) <= 0 then begin
          a.(!k) <- tmp.(!i);
          incr i
        end
        else begin
          a.(!k) <- a.(!j);
          incr j
        end;
        incr k
      done;
      Array.blit tmp !i a !k (mid - !i)
    end
  in
  sort 0 (Array.length a)

let sorted_copy samples =
  if Array.length samples = 0 then invalid_arg "Histogram.quantile: empty sample";
  let sorted = Array.copy samples in
  sort_floats sorted;
  sorted

(* Nearest-rank: the smallest sample s such that at least [q * len]
   samples are <= s (q = 0 gives the minimum, q = 1 the maximum). *)
let nearest_rank sorted ~q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Histogram.quantile: q outside [0, 1]";
  let len = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int len)) in
  sorted.(max 0 (min (len - 1) (rank - 1)))

let quantile samples ~q =
  nearest_rank (sorted_copy samples) ~q

type latency_summary = { p50 : float; p90 : float; p99 : float; max : float }

let summary samples =
  let sorted = sorted_copy samples in
  {
    p50 = nearest_rank sorted ~q:0.5;
    p90 = nearest_rank sorted ~q:0.9;
    p99 = nearest_rank sorted ~q:0.99;
    max = nearest_rank sorted ~q:1.;
  }

let pp ?(bar_width = 40) ppf t =
  let most = Array.fold_left max 1 t.counts in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (lo, hi, c) ->
      let bar = c * bar_width / most in
      Format.fprintf ppf "%6d-%-6d %6d %s@," lo hi c (String.make bar '#'))
    (bucket_counts t);
  Format.fprintf ppf "@]"
