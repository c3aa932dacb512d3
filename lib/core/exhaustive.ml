type stats = {
  orders : int;
  all_correct : bool;
  all_hotspot : bool;
  all_bound : bool;
  min_bottleneck : int;
  max_bottleneck : int;
  min_messages : int;
  max_messages : int;
}

(* Lazy lexicographic permutations: standard next-permutation on an
   int array, wrapped in a Seq. Unguarded — callers that only take a
   bounded prefix (verify_counter ~limit) may exceed the public cap. *)
let perm_seq n =
  if n < 0 then invalid_arg "Exhaustive.permutations: negative n";
  let next a =
    let len = Array.length a in
    (* Find the longest non-increasing suffix. *)
    let rec pivot i = if i <= 0 then -1 else if a.(i - 1) < a.(i) then i - 1 else pivot (i - 1) in
    let p = pivot (len - 1) in
    if p < 0 then None
    else begin
      let a = Array.copy a in
      (* Rightmost element greater than the pivot. *)
      let rec successor i = if a.(i) > a.(p) then i else successor (i - 1) in
      let s = successor (len - 1) in
      let tmp = a.(p) in
      a.(p) <- a.(s);
      a.(s) <- tmp;
      (* Reverse the suffix. *)
      let lo = ref (p + 1) and hi = ref (len - 1) in
      while !lo < !hi do
        let tmp = a.(!lo) in
        a.(!lo) <- a.(!hi);
        a.(!hi) <- tmp;
        incr lo;
        decr hi
      done;
      Some a
    end
  in
  let rec seq a () =
    Seq.Cons
      ( Array.to_list a,
        match next a with None -> Seq.empty | Some a' -> seq a' )
  in
  if n = 0 then Seq.return []
  else seq (Array.init n (fun i -> i + 1))

(* 10! = 3.6M lists of 10 ints: forcing the whole Seq would allocate
   gigabytes and run for hours. The public entry point refuses outright
   rather than letting a caller discover that the hard way. *)
let max_permutation_n = 9

let permutations n =
  if n > max_permutation_n then
    invalid_arg
      (Printf.sprintf
         "Exhaustive.permutations: n = %d exceeds the cap of %d (n! blows \
          up); use verify_counter ~limit for sampled sweeps"
         n max_permutation_n);
  perm_seq n

let verify_counter ?(seed = 42) ?limit (module C : Counter.Counter_intf.S) ~n =
  let n = C.supported_n n in
  (if n > 9 && limit = None then
     invalid_arg "Exhaustive.verify_counter: n! too large; pass ~limit");
  let stats =
    ref
      {
        orders = 0;
        all_correct = true;
        all_hotspot = true;
        all_bound = true;
        min_bottleneck = max_int;
        max_bottleneck = 0;
        min_messages = max_int;
        max_messages = 0;
      }
  in
  let check order =
    let counter = C.create ~seed ~n () in
    let correct =
      List.for_all2
        (fun origin expected -> C.inc counter ~origin = expected)
        order
        (List.init n Fun.id)
    in
    let hotspot = Counter.Hotspot.holds (C.traces counter) in
    let metrics = C.metrics counter in
    let _, bottleneck = Sim.Metrics.bottleneck metrics in
    let messages = Sim.Metrics.total_messages metrics in
    let s = !stats in
    stats :=
      {
        orders = s.orders + 1;
        all_correct = s.all_correct && correct;
        all_hotspot = s.all_hotspot && hotspot;
        all_bound =
          s.all_bound
          && Lower_bound.satisfied_by ~n ~bottleneck_load:bottleneck;
        min_bottleneck = min s.min_bottleneck bottleneck;
        max_bottleneck = max s.max_bottleneck bottleneck;
        min_messages = min s.min_messages messages;
        max_messages = max s.max_messages messages;
      }
  in
  let orders = perm_seq n in
  (match limit with
  | None -> Seq.iter check orders
  | Some l -> Seq.iter check (Seq.take l orders));
  !stats

let pp_stats ppf s =
  Format.fprintf ppf
    "orders=%d correct=%b hotspot=%b bound=%b bottleneck=[%d..%d] \
     messages=[%d..%d]"
    s.orders s.all_correct s.all_hotspot s.all_bound s.min_bottleneck
    s.max_bottleneck s.min_messages s.max_messages
