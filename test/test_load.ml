(* Open-loop load engine tests (docs/LOAD.md): the arrival generator's
   determinism and distribution properties, the concurrent-history
   checker against a brute-force linearizability reference, the stored
   E20 / open-loop violation goldens, and Driver.run_load end to end. *)

let check = Alcotest.check

module A = Sim.Arrivals
module H = Counter.History
module D = Counter.Driver

(* ------------------------------------------------------------------ *)
(* Arrival processes *)

let test_of_string_roundtrip () =
  List.iter
    (fun s -> check Alcotest.string s s (A.to_string (A.of_string s)))
    [ "fixed:2"; "poisson:0.5"; "bursty:1.5:4:6" ]

let test_of_string_rejects_garbage () =
  List.iter
    (fun s ->
      match A.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail ("accepted " ^ s))
    [ ""; "poisson"; "poisson:0"; "poisson:-1"; "fixed:x"; "bursty:1:2";
      "uniform:1"; "bursty:1:0:5" ]

let test_fixed_stream_is_a_grid () =
  let s = A.stream (A.Fixed 2.0) ~seed:9 ~origin:3 ~count:40 in
  check Alcotest.int "count" 40 (Array.length s);
  Alcotest.(check bool) "starts after 0" true (s.(0) > 0.);
  Array.iteri
    (fun i t ->
      if i > 0 then
        check (Alcotest.float 1e-9)
          (Printf.sprintf "gap %d" i)
          0.5 (t -. s.(i - 1)))
    s

let test_stream_deterministic_per_seed () =
  let p = A.Poisson 0.7 in
  let a = A.stream p ~seed:11 ~origin:4 ~count:200 in
  let b = A.stream p ~seed:11 ~origin:4 ~count:200 in
  Alcotest.(check (array (float 0.))) "same (seed, origin) = same stream" a b;
  let c = A.stream p ~seed:12 ~origin:4 ~count:200 in
  let d = A.stream p ~seed:11 ~origin:5 ~count:200 in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Alcotest.(check bool) "different origin differs" true (a <> d)

let test_poisson_mean () =
  (* Mean inter-arrival of a long stream must sit near 1/rate. *)
  List.iter
    (fun rate ->
      let count = 4000 in
      let s = A.stream (A.Poisson rate) ~seed:5 ~origin:1 ~count in
      let mean = s.(count - 1) /. float_of_int count in
      let expected = 1. /. rate in
      Alcotest.(check bool)
        (Printf.sprintf "rate %g: mean %g within 10%% of %g" rate mean
           expected)
        true
        (Float.abs (mean -. expected) < 0.1 *. expected))
    [ 0.25; 1.0; 4.0 ]

let prop_bursty_envelope =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"bursty arrivals respect the on/off envelope"
       ~count:60
       QCheck2.Gen.(
         quad (int_range 0 1000) (float_range 0.5 4.0) (float_range 1.0 8.0)
           (float_range 1.0 8.0))
       (fun (seed, rate, on_len, off_len) ->
         let s =
           A.stream (A.Bursty { rate; on_len; off_len }) ~seed ~origin:2
             ~count:120
         in
         Array.for_all
           (fun t -> Float.rem t (on_len +. off_len) <= on_len +. 1e-9)
           s))

let prop_stream_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"streams are positive and non-decreasing"
       ~count:60
       QCheck2.Gen.(
         pair (int_range 0 1000)
           (oneofl
              [ A.Fixed 1.5; A.Poisson 0.8;
                A.Bursty { rate = 2.0; on_len = 3.0; off_len = 2.0 } ]))
       (fun (seed, proc) ->
         let s = A.stream proc ~seed ~origin:1 ~count:80 in
         let ok = ref (s.(0) > 0.) in
         Array.iteri (fun i t -> if i > 0 && t < s.(i - 1) then ok := false) s;
         !ok))

let prop_merge_sorted_and_complete =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"merge: sorted by time, ops entries, origins in 1..n" ~count:40
       QCheck2.Gen.(
         triple (int_range 0 1000) (int_range 1 32) (int_range 1 300))
       (fun (seed, n, ops) ->
         let plan = A.merge (A.Poisson 0.5) ~seed ~n ~ops in
         Array.length plan = ops
         && Array.for_all (fun (_, o) -> o >= 1 && o <= n) plan
         &&
         let ok = ref true in
         Array.iteri
           (fun i (t, _) -> if i > 0 && t < fst plan.(i - 1) then ok := false)
           plan;
         !ok))

(* ------------------------------------------------------------------ *)
(* History checker vs a brute-force reference *)

let op_equal (a : H.op) (b : H.op) =
  a.origin = b.origin && a.value = b.value
  && Float.equal a.invoked_at b.invoked_at
  && Float.equal a.completed_at b.completed_at

(* A history is linearizable iff some permutation of its operations both
   extends the real-time precedence order and returns increasing values.
   O(ops!) — the reference the O(ops log ops) sweep is checked against. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let brute_force_linearizable history =
  let legal order =
    let rec go = function
      | [] -> true
      | (x : H.op) :: rest ->
          List.for_all
            (fun (y : H.op) ->
              x.value < y.value && not (y.completed_at < x.invoked_at))
            rest
          && go rest
    in
    go order
  in
  List.exists legal (permutations history)

let gen_history =
  (* Up to 8 operations with distinct values 0..k-1 and arbitrary
     overlapping intervals. *)
  QCheck2.Gen.(
    int_range 1 8 >>= fun k ->
    shuffle_l (List.init k Fun.id) >>= fun values ->
    list_size (return k) (pair (float_range 0. 50.) (float_range 0.1 25.))
    >|= fun times ->
    List.map2
      (fun value (invoked_at, dur) ->
        {
          H.origin = value + 1;
          value;
          invoked_at;
          completed_at = invoked_at +. dur;
        })
      values times)

let prop_check_matches_brute_force =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"check agrees with the O(ops!) reference"
       ~count:150 gen_history (fun h ->
         let fast =
           match H.check h with
           | H.Linearizable -> true
           | H.Violation _ -> false
         in
         fast = brute_force_linearizable h))

let prop_witness_valid =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"every violation witness is a real precedence inversion"
       ~count:150 gen_history (fun h ->
         match H.check h with
         | H.Linearizable -> true
         | H.Violation (a, b) ->
             a.completed_at < b.invoked_at && a.value > b.value))

let prop_check_input_order_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"verdict and witness ignore input order"
       ~count:100
       QCheck2.Gen.(gen_history >>= fun h -> shuffle_l h >|= fun s -> (h, s))
       (fun (h, shuffled) ->
         match (H.check h, H.check shuffled) with
         | H.Linearizable, H.Linearizable -> true
         | H.Violation (a, b), H.Violation (a', b') ->
             op_equal a a' && op_equal b b'
         | _ -> false))

let test_check_small_cases () =
  let op value invoked_at completed_at =
    { H.origin = value + 1; value; invoked_at; completed_at }
  in
  (match H.check [] with
  | H.Linearizable -> ()
  | H.Violation _ -> Alcotest.fail "empty history must be linearizable");
  (* Fully overlapping out-of-order values: vacuously linearizable. *)
  (match H.check [ op 1 0. 10.; op 0 0. 10. ] with
  | H.Linearizable -> ()
  | H.Violation _ -> Alcotest.fail "overlap must excuse reordering");
  (* Disjoint intervals with inverted values: the canonical violation. *)
  match H.check [ op 1 0. 1.; op 0 2. 3. ] with
  | H.Violation (a, b) ->
      check Alcotest.int "a.value" 1 a.value;
      check Alcotest.int "b.value" 0 b.value
  | H.Linearizable -> Alcotest.fail "disjoint inversion missed"

(* The list analyses [History] ran on before it sorted each key once:
   [check] sorts two arrays, [values_contiguous] sorts the values, and
   peak and mean overlap each sort 2n boxed endpoint tuples. The
   reference the one-sort array code is pinned to, field by field. *)
module Reference = struct
  let cmp_fields k1 k2 (a : H.op) (b : H.op) =
    match Float.compare (k1 a) (k1 b) with
    | 0 -> (
        match Float.compare (k2 a) (k2 b) with
        | 0 -> (
            match Int.compare a.value b.value with
            | 0 -> Int.compare a.origin b.origin
            | c -> c)
        | c -> c)
    | c -> c

  let check ops =
    let inv = Array.of_list ops in
    let comp = Array.copy inv in
    Array.sort
      (cmp_fields (fun (o : H.op) -> o.invoked_at) (fun o -> o.completed_at))
      inv;
    Array.sort
      (cmp_fields (fun (o : H.op) -> o.completed_at) (fun o -> o.invoked_at))
      comp;
    let j = ref 0 and best = ref None and found = ref None in
    Array.iter
      (fun (b : H.op) ->
        if Option.is_none !found then begin
          while !j < Array.length comp && comp.(!j).completed_at < b.invoked_at
          do
            (match !best with
            | Some (a : H.op) when a.value >= comp.(!j).value -> ()
            | Some _ | None -> best := Some comp.(!j));
            incr j
          done;
          match !best with
          | Some a when a.value > b.value -> found := Some (a, b)
          | Some _ | None -> ()
        end)
      inv;
    match !found with None -> H.Linearizable | Some (a, b) -> H.Violation (a, b)

  let values_contiguous ops =
    let values = List.sort Int.compare (List.map (fun (o : H.op) -> o.value) ops) in
    values = List.init (List.length ops) Fun.id

  (* Completions sort before invocations at the same instant. *)
  let sweep_events ops =
    List.sort
      (fun (t1, d1) (t2, d2) ->
        match Float.compare t1 t2 with 0 -> Int.compare d1 d2 | c -> c)
      (List.concat_map
         (fun (o : H.op) -> [ (o.invoked_at, 1); (o.completed_at, -1) ])
         ops)

  let concurrency_profile ops =
    snd
      (List.fold_left
         (fun (cur, peak) (_, d) -> (cur + d, max peak (cur + d)))
         (0, 0) (sweep_events ops))

  let mean_overlap ops =
    match sweep_events ops with
    | [] -> 0.
    | (t0, _) :: _ as events ->
        let _, t_last, area =
          List.fold_left
            (fun (cur, prev_t, area) (t, d) ->
              (cur + d, t, area +. (float_of_int cur *. (t -. prev_t))))
            (0, t0, 0.) events
        in
        let span = t_last -. t0 in
        if span > 0. then area /. span else 0.
end

let verdict_equal v w =
  match (v, w) with
  | H.Linearizable, H.Linearizable -> true
  | H.Violation (a, b), H.Violation (a', b') -> op_equal a a' && op_equal b b'
  | _ -> false

(* Histories on a coarse time grid, so completions often land on another
   op's invocation (and zero-length ops occur); grid points are tenths,
   which floats hold inexactly, so the mean's summation order shows.
   Values are a permutation half the time, else drawn with duplicates and
   gaps. Given in shuffled order. *)
let gen_grid_history =
  QCheck2.Gen.(
    int_range 0 40 >>= fun k ->
    bool >>= fun permuted ->
    (if permuted then shuffle_l (List.init k Fun.id)
     else list_size (return k) (int_range 0 k))
    >>= fun values ->
    list_size (return k) (triple (int_range 1 8) (int_range 0 30) (int_range 0 6))
    >>= fun spans ->
    shuffle_l
      (List.map2
         (fun value (origin, start, length) ->
           {
             H.origin;
             value;
             invoked_at = float_of_int start *. 0.1;
             completed_at = float_of_int (start + length) *. 0.1;
           })
         values spans))

let prop_analyze_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"analyze = the list reference, field by field" ~count:500
       gen_grid_history (fun h ->
         let a = H.analyze h in
         let verdict = Reference.check h in
         let quiescent = Reference.values_contiguous h in
         verdict_equal a.H.verdict verdict
         && Bool.equal a.H.quiescent quiescent
         && Bool.equal a.H.linearizable
              (quiescent && verdict_equal verdict H.Linearizable)
         && a.H.peak_overlap = Reference.concurrency_profile h
         && Float.equal a.H.mean_overlap (Reference.mean_overlap h)
         && verdict_equal (H.check h) verdict
         && Bool.equal (H.values_contiguous h) quiescent
         && H.concurrency_profile h = a.H.peak_overlap
         && Float.equal (H.mean_overlap h) a.H.mean_overlap))

(* ------------------------------------------------------------------ *)
(* Stored goldens: the violations the docs talk about must keep
   reproducing bit-for-bit. *)

let test_e20_golden () =
  (* EXPERIMENTS.md E20: counting network n=64 width=8, exponential
     delays, seed 5, stagger 0.5 — the concrete violation the experiment
     prints. *)
  let c =
    Baselines.Counting_network.create_width ~n:64 ~width:8
      ~delay:(Sim.Delay.Exponential 1.0) ~seed:5 ()
  in
  let h =
    Baselines.Counting_network.run_batch_timed c ~stagger:0.5
      ~origins:(List.init 64 (fun i -> i + 1))
      ()
  in
  match H.check h with
  | H.Violation (a, b) ->
      check Alcotest.int "a.origin" 31 a.origin;
      check Alcotest.int "a.value" 44 a.value;
      check Alcotest.int "b.origin" 53 b.origin;
      check Alcotest.int "b.value" 43 b.value;
      Alcotest.(check bool) "a precedes b" true
        (a.completed_at < b.invoked_at)
  | H.Linearizable -> Alcotest.fail "E20 violation disappeared"

let test_open_loop_violation_golden () =
  (* docs/LOAD.md: the moderate-overlap open-loop violation dcount load
     --check gates on. Saturating rates mask the phenomenon (the
     violation window needs a quiet network to close), so the golden
     lives at rate 0.05 per source. *)
  let r =
    D.run_load ~seed:42 ~delay:(Sim.Delay.Exponential 1.0)
      (module Baselines.Counting_network)
      ~n:64 ~arrivals:(A.Poisson 0.05) ~ops:1000
  in
  check Alcotest.int "all complete" 1000 r.D.completed;
  Alcotest.(check bool) "quiescently consistent" true
    r.D.analysis.H.quiescent;
  match r.D.analysis.H.verdict with
  | H.Violation (a, b) ->
      check Alcotest.int "a.origin" 55 a.origin;
      check Alcotest.int "a.value" 920 a.value;
      check Alcotest.int "b.origin" 36 b.origin;
      check Alcotest.int "b.value" 919 b.value
  | H.Linearizable -> Alcotest.fail "open-loop violation disappeared"

let test_retire_tree_linearizable_at_every_overlap () =
  (* The paper's counter serialises at the root: linearizable at every
     load level, from near-sequential to heavily saturated. *)
  List.iter
    (fun rate ->
      let r =
        D.run_load ~seed:42 ~delay:(Sim.Delay.Exponential 1.0)
          (module Core.Retire_counter) ~n:64 ~arrivals:(A.Poisson rate)
          ~ops:300
      in
      check Alcotest.int
        (Printf.sprintf "rate %g: all complete" rate)
        300 r.D.completed;
      Alcotest.(check bool)
        (Printf.sprintf "rate %g: linearizable" rate)
        true r.D.analysis.H.linearizable)
    [ 0.05; 0.5; 2.0 ]

(* ------------------------------------------------------------------ *)
(* Driver.run_load end to end *)

let test_every_concurrent_counter_completes () =
  List.iter
    (fun (module C : Counter.Counter_intf.S) ->
      let r =
        D.run_load ~seed:7 ~delay:(Sim.Delay.Exponential 1.0)
          (module C) ~n:16 ~arrivals:(A.Poisson 0.5) ~ops:200
      in
      check Alcotest.int (C.name ^ ": fault-free loses nothing") 200
        r.D.completed;
      check Alcotest.int (C.name ^ ": lost") 0 r.D.lost;
      Alcotest.(check bool)
        (C.name ^ ": genuinely overlapping")
        true
        (r.D.analysis.H.peak_overlap > 1);
      (* Quorum counters duplicate values under overlap (documented in
         docs/LOAD.md); every other counter stays quiescently
         consistent. *)
      let quorum =
        String.length C.name >= 6 && String.sub C.name 0 6 = "quorum"
      in
      if not quorum then
        Alcotest.(check bool)
          (C.name ^ ": quiescently consistent")
          true r.D.analysis.H.quiescent)
    Baselines.Registry.all

(* Closed loop vs open loop, pinned together for every counter: the same
   origins run once with [inc_result] and once as open-loop arrivals far
   enough apart that no two operations overlap. Both runs must return the
   same outcomes in op order (a closed op that stalls is an open op that
   never completes) and the same per-processor load vector — for the
   quorum counters this pins closed-loop operations to open-loop ones on
   the one client. The faulted input crashes p3 from the start and drops
   messages under delays longer than the quorum client's first timeout,
   so late replies arrive. A retry chain lasts at most 32 (2^8 - 1) =
   8 160 time units plus its delays, hence arrivals 100 000 apart. *)
let every_counter =
  Baselines.Registry.all
  @ (Baselines.Registry.sync_count :: Baselines.Registry.broken)

let differential_inputs =
  [
    (None, Sim.Delay.Constant 1.0, 1_000.);
    ( (match Sim.Fault.of_string "crash:3@0/drop:0.1" with
      | Ok f -> Some f
      | Error e -> failwith e),
      Sim.Delay.Constant 40.0,
      100_000. );
  ]

let test_closed_open_differential () =
  List.iter
    (fun (faults, delay, spacing) ->
      List.iter
        (fun (module C : Counter.Counter_intf.S) ->
          let n = C.supported_n 16 in
          let origins =
            Counter.Schedule.origins (Counter.Schedule.Random 40)
              (Sim.Rng.create ~seed:43) ~n
          in
          let fresh () = C.create ~seed:42 ~delay ?faults ~n () in
          let name =
            Format.asprintf "%s under %a" C.name Sim.Delay.pp delay
          in
          let closed = fresh () in
          let closed_values =
            List.map
              (fun origin ->
                Counter.Counter_intf.outcome_value (C.inc_result closed ~origin))
              origins
          in
          if Option.is_none faults then
            check Alcotest.bool (name ^ ": no closed op stalls") true
              (List.for_all Option.is_some closed_values);
          let opened = fresh () in
          List.iteri
            (fun op origin ->
              C.launch_at opened ~op ~origin
                ~at:(spacing *. float_of_int (op + 1)))
            origins;
          C.run_open opened;
          let completions = C.completions opened in
          let open_values =
            List.mapi
              (fun op _ ->
                List.find_map
                  (fun (op', v, _) -> if op' = op then Some v else None)
                  completions)
              origins
          in
          check
            Alcotest.(list (option int))
            (name ^ ": values") closed_values open_values;
          check Alcotest.int
            (name ^ ": one completion per completed op")
            (List.length (List.filter Option.is_some open_values))
            (List.length completions);
          check
            Alcotest.(array int)
            (name ^ ": load vector")
            (Sim.Metrics.load_array (C.metrics closed))
            (Sim.Metrics.load_array (C.metrics opened)))
        every_counter)
    differential_inputs

(* A serialising counter serves each launched operation inside
   [launch_at] as a closed-loop run, but keeps no trace of it: [traces]
   holds the closed-loop operation before the launches and nothing
   else. *)
let test_serialising_launches_keep_no_trace () =
  let module C = Core.Retire_counter in
  let c = C.create ~seed:42 ~n:81 () in
  check Alcotest.int "closed op" 0 (C.inc c ~origin:3);
  for op = 0 to 99 do
    C.launch_at c ~op ~origin:((op mod 81) + 1) ~at:(float_of_int (op + 10))
  done;
  C.run_open c;
  check Alcotest.int "every launch completes" 100
    (List.length (C.completions c));
  match C.traces c with
  | [ t ] -> check Alcotest.int "the closed op's trace" 3 (Sim.Trace.origin t)
  | ts -> Alcotest.failf "%d traces, expected 1" (List.length ts)

let test_latency_percentiles_ordered () =
  let r =
    D.run_load ~seed:42 ~delay:(Sim.Delay.Exponential 1.0)
      (module Baselines.Central) ~n:32 ~arrivals:(A.Poisson 1.0) ~ops:500
  in
  let l = r.D.latency in
  Alcotest.(check bool) "p50 <= p90" true
    (l.Analysis.Histogram.p50 <= l.Analysis.Histogram.p90);
  Alcotest.(check bool) "p90 <= p99" true
    (l.Analysis.Histogram.p90 <= l.Analysis.Histogram.p99);
  Alcotest.(check bool) "p99 <= max" true
    (l.Analysis.Histogram.p99 <= l.Analysis.Histogram.max);
  Alcotest.(check bool) "positive" true (l.Analysis.Histogram.p50 > 0.);
  Alcotest.(check bool) "throughput positive" true (r.D.throughput > 0.)

let test_run_load_reproducible () =
  (* The full report — counts, percentiles, verdicts, witness, every
     history entry — must be bit-identical when the same seeded run is
     repeated in one process: no hidden global state leaks between runs. *)
  let render () =
    let r =
      D.run_load ~seed:42 ~delay:(Sim.Delay.Exponential 1.0)
        (module Baselines.Counting_network)
        ~n:64 ~arrivals:(A.Poisson 2.0) ~ops:400
    in
    Format.asprintf "%a@.%s" D.pp_load_report r
      (String.concat ";"
         (List.map
            (fun (o : H.op) ->
              Printf.sprintf "%d,%d,%h,%h" o.origin o.value o.invoked_at
                o.completed_at)
            r.D.history))
  in
  let reference = render () in
  check Alcotest.string "repeat run" reference (render ())

let () =
  Alcotest.run "load"
    [
      ( "arrivals",
        [
          Alcotest.test_case "grammar roundtrip" `Quick
            test_of_string_roundtrip;
          Alcotest.test_case "grammar rejects" `Quick
            test_of_string_rejects_garbage;
          Alcotest.test_case "fixed grid" `Quick test_fixed_stream_is_a_grid;
          Alcotest.test_case "deterministic per seed" `Quick
            test_stream_deterministic_per_seed;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          prop_bursty_envelope;
          prop_stream_monotone;
          prop_merge_sorted_and_complete;
        ] );
      ( "checker",
        [
          prop_check_matches_brute_force;
          prop_witness_valid;
          prop_check_input_order_invariant;
          prop_analyze_matches_reference;
          Alcotest.test_case "small cases" `Quick test_check_small_cases;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "E20 seed 5 stagger 0.5" `Quick test_e20_golden;
          Alcotest.test_case "open-loop violation" `Quick
            test_open_loop_violation_golden;
          Alcotest.test_case "retire-tree always linearizable" `Quick
            test_retire_tree_linearizable_at_every_overlap;
        ] );
      ( "run-load",
        [
          Alcotest.test_case "every counter completes" `Quick
            test_every_concurrent_counter_completes;
          Alcotest.test_case "closed = open without overlap" `Quick
            test_closed_open_differential;
          Alcotest.test_case "serialising launches keep no trace" `Quick
            test_serialising_launches_keep_no_trace;
          Alcotest.test_case "percentiles ordered" `Quick
            test_latency_percentiles_ordered;
          Alcotest.test_case "report reproducible" `Slow
            test_run_load_reproducible;
        ] );
    ]
