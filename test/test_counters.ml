(* Generic conformance tests: every counter in the registry must count
   correctly, obey the Hot Spot Lemma on executions, satisfy the lower
   bound, clone faithfully, and be reproducible from its seed. Plus a
   deliberately broken counter proving the Hot Spot checker has teeth. *)

let check = Alcotest.check

let small_n = 27 (* rounded up per counter as needed *)

let all = Baselines.Registry.all

let name_of (module C : Counter.Counter_intf.S) = C.name

let for_all_counters f =
  List.iter (fun ((module C : Counter.Counter_intf.S) as c) -> f C.name c) all

let test_each_once_correct () =
  for_all_counters (fun name c ->
      let r = Counter.Driver.run_each_once c ~n:small_n in
      Alcotest.(check bool) (name ^ " correct") true
        (r.values_exact && r.sequentially_ordered);
      check Alcotest.int (name ^ " ops = n") r.n r.ops)

let test_hotspot_lemma () =
  for_all_counters (fun name c ->
      let r = Counter.Driver.run_each_once c ~n:small_n in
      Alcotest.(check bool) (name ^ " hot spot") true r.hotspot_ok)

let test_lower_bound () =
  for_all_counters (fun name c ->
      let r = Counter.Driver.run_each_once c ~n:small_n in
      Alcotest.(check bool)
        (Printf.sprintf "%s bottleneck %d >= k" name r.bottleneck_load)
        true
        (Core.Lower_bound.satisfied_by ~n:r.n
           ~bottleneck_load:r.bottleneck_load))

let test_deterministic_given_seed () =
  for_all_counters (fun name c ->
      let a = Counter.Driver.run_each_once ~seed:7 c ~n:small_n in
      let b = Counter.Driver.run_each_once ~seed:7 c ~n:small_n in
      check Alcotest.int (name ^ " same messages") a.total_messages
        b.total_messages;
      check Alcotest.int (name ^ " same bottleneck") a.bottleneck_load
        b.bottleneck_load)

let test_schedules_all_correct () =
  let schedules =
    [
      Counter.Schedule.Each_once_shuffled;
      Counter.Schedule.Round_robin 40;
      Counter.Schedule.Random 40;
      Counter.Schedule.Single_origin (1, 20);
    ]
  in
  for_all_counters (fun name c ->
      List.iter
        (fun schedule ->
          let r = Counter.Driver.run c ~n:small_n ~schedule in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s" name r.schedule)
            true
            (r.values_exact && r.sequentially_ordered))
        schedules)

let test_clone_preserves_future () =
  for_all_counters (fun name (module C : Counter.Counter_intf.S) ->
      let n = C.supported_n 16 in
      let c = C.create ~seed:3 ~n () in
      for i = 1 to n / 2 do
        ignore (C.inc c ~origin:i)
      done;
      let clone = C.clone c in
      let a = C.inc c ~origin:1 in
      let b = C.inc clone ~origin:1 in
      check Alcotest.int (name ^ " clone next value") a b)

let test_supported_n_idempotent () =
  for_all_counters (fun name (module C : Counter.Counter_intf.S) ->
      List.iter
        (fun n ->
          let s = C.supported_n n in
          Alcotest.(check bool) (name ^ " >= n") true (s >= n);
          check Alcotest.int (name ^ " idempotent") s (C.supported_n s))
        [ 1; 2; 7; 16; 27; 100 ])

let test_values_monotone_across_origins () =
  (* Sequential semantics: regardless of who asks, values only grow. *)
  for_all_counters (fun name (module C : Counter.Counter_intf.S) ->
      let n = C.supported_n 16 in
      let c = C.create ~n () in
      let rng = Sim.Rng.create ~seed:11 in
      let prev = ref (-1) in
      for _ = 1 to 2 * n do
        let origin = 1 + Sim.Rng.int rng n in
        let v = C.inc c ~origin in
        Alcotest.(check bool) (name ^ " monotone") true (v = !prev + 1);
        prev := v
      done)

let test_correct_under_async_delays () =
  (* Sequential operations are delay-independent: every counter must
     return exact values under reordering delivery too. *)
  List.iter
    (fun delay ->
      for_all_counters (fun name c ->
          let r = Counter.Driver.run ~delay c ~n:16 ~schedule:Counter.Schedule.Each_once in
          Alcotest.(check bool)
            (Format.asprintf "%s under %a" name Sim.Delay.pp delay)
            true
            (r.values_exact && r.sequentially_ordered)))
    [ Sim.Delay.Exponential 1.0; Sim.Delay.Uniform (0.1, 3.0) ]

let test_latency_fields_sane () =
  for_all_counters (fun name c ->
      let r = Counter.Driver.run_each_once c ~n:16 in
      Alcotest.(check bool) (name ^ " mean <= max") true
        (r.mean_op_latency <= r.max_op_latency +. 1e-9);
      Alcotest.(check bool) (name ^ " non-negative") true
        (r.mean_op_latency >= 0.))

let test_latency_central_is_two_hops () =
  let r = Counter.Driver.run_each_once Baselines.Registry.central ~n:20 in
  (* Unit delays: request + reply = 2.0 for every remote op; the holder's
     own op is instantaneous. *)
  check (Alcotest.float 1e-9) "max latency" 2.0 r.max_op_latency;
  Alcotest.(check bool) "mean slightly below 2" true
    (r.mean_op_latency < 2.0 && r.mean_op_latency > 1.8)

let test_duration_equals_critical_path () =
  (* Cross-validation of the causal machinery: under the unit-delay model
     an operation's virtual-time duration must equal the length of the
     longest causal message chain in its process DAG (for protocols
     without local timers). *)
  List.iter
    (fun c ->
      let (module C : Counter.Counter_intf.S) = c in
      let n = C.supported_n 27 in
      let counter = C.create ~delay:(Sim.Delay.Constant 1.0) ~n () in
      for i = 1 to n do
        ignore (C.inc counter ~origin:i)
      done;
      List.iter
        (fun trace ->
          let dag = Sim.Dag.of_trace trace in
          Alcotest.(check (float 1e-9))
            (C.name ^ " duration = critical path")
            (float_of_int (Sim.Dag.critical_path dag))
            (Sim.Trace.duration trace))
        (C.traces counter))
    [
      Baselines.Registry.retire_tree;
      Baselines.Registry.retire_tree_local;
      Baselines.Registry.central;
      Baselines.Registry.counting_network;
      Baselines.Registry.quorum_grid;
    ]

let test_dags_topologically_delivered () =
  (* The engine's delivery order must be a topological order of every
     process DAG, for every counter — the assumption behind using
     delivery order for the communication lists. *)
  for_all_counters (fun name (module C : Counter.Counter_intf.S) ->
      let n = C.supported_n 16 in
      let counter = C.create ~n () in
      for i = 1 to n do
        ignore (C.inc counter ~origin:i)
      done;
      List.iter
        (fun trace ->
          Alcotest.(check bool) (name ^ " topological") true
            (Sim.Dag.consistent_with_delivery_order (Sim.Dag.of_trace trace)))
        (C.traces counter))

(* ------------------------------------------------------------------ *)
(* History / linearizability *)

let hist_op origin value invoked_at completed_at =
  { Counter.History.origin; value; invoked_at; completed_at }

let test_history_linearizable () =
  (* Sequential history: trivially linearizable. *)
  let h = [ hist_op 1 0 0. 1.; hist_op 2 1 2. 3.; hist_op 3 2 4. 5. ] in
  Alcotest.(check bool) "sequential" true (Counter.History.is_linearizable h);
  Alcotest.(check bool) "contiguous" true (Counter.History.values_contiguous h);
  Alcotest.(check int) "no overlap" 1 (Counter.History.concurrency_profile h)

let test_history_violation_detected () =
  (* a completes (t=1) before b starts (t=2), yet a got the larger
     value. *)
  let a = hist_op 1 5 0. 1. and b = hist_op 2 4 2. 3. in
  (match Counter.History.check [ a; b ] with
  | Counter.History.Violation (x, y) ->
      Alcotest.(check int) "violating pair a" a.Counter.History.value
        x.Counter.History.value;
      Alcotest.(check int) "violating pair b" b.Counter.History.value
        y.Counter.History.value
  | Counter.History.Linearizable -> Alcotest.fail "expected violation");
  Alcotest.(check bool) "not linearizable" false
    (Counter.History.is_linearizable [ a; b ])

let test_history_overlap_permits_any_order () =
  (* Overlapping ops may take values in either order. *)
  let h = [ hist_op 1 1 0. 10.; hist_op 2 0 1. 9. ] in
  Alcotest.(check bool) "overlap ok" true (Counter.History.is_linearizable h);
  Alcotest.(check int) "peak 2" 2 (Counter.History.concurrency_profile h)

let test_history_contiguity () =
  Alcotest.(check bool) "gap detected" false
    (Counter.History.values_contiguous [ hist_op 1 0 0. 1.; hist_op 2 2 1. 2. ])

let test_retire_tree_staggered_always_linearizable () =
  (* The root serialises arrivals, so real-time order is preserved. *)
  List.iter
    (fun seed ->
      let c =
        Core.Retire_counter.create ~n:81
          ~delay:(Sim.Delay.Exponential 1.0) ~seed ()
      in
      let h =
        Core.Retire_counter.run_batch_timed c ~stagger:0.5
          ~origins:(List.init 81 (fun i -> i + 1))
          ()
      in
      Alcotest.(check bool) "contiguous" true
        (Counter.History.values_contiguous h);
      Alcotest.(check bool) "linearizable" true
        (Counter.History.is_linearizable h))
    [ 1; 2; 3; 4; 5 ]

let test_counting_network_violates_under_overlap () =
  (* The HSW phenomenon: seed 5, stagger 0.5 yields a real-time
     inversion (pinned deterministic counterexample). *)
  let c =
    Baselines.Counting_network.create_width ~n:64 ~width:8
      ~delay:(Sim.Delay.Exponential 1.0) ~seed:5 ()
  in
  let h =
    Baselines.Counting_network.run_batch_timed c ~stagger:0.5
      ~origins:(List.init 64 (fun i -> i + 1))
      ()
  in
  Alcotest.(check bool) "still contiguous (quiescent consistency)" true
    (Counter.History.values_contiguous h);
  Alcotest.(check bool) "but not linearizable" false
    (Counter.History.is_linearizable h)

let test_registry_lookup () =
  check Alcotest.int "fifteen counters" 15 (List.length all);
  List.iter
    (fun name ->
      match Baselines.Registry.find name with
      | Some (module C : Counter.Counter_intf.S) ->
          check Alcotest.string "found right module" name C.name
      | None -> Alcotest.failf "missing %s" name)
    (Baselines.Registry.names ());
  Alcotest.(check bool)
    "unknown name" true
    (Baselines.Registry.find "no-such-counter" = None);
  (* Pin the order of [all]. *)
  check
    Alcotest.(list string)
    "all order"
    [
      "retire-tree"; "retire-tree-local"; "retire-ft"; "central";
      "static-tree"; "combining"; "counting-net"; "periodic-net";
      "diffracting"; "quorum-majority"; "quorum-grid"; "quorum-tree";
      "quorum-crumbling-wall"; "quorum-projective-plane"; "durable";
    ]
    (Baselines.Registry.names ());
  (* Every counter runs open loop: [find_concurrent] resolves every name
     [find] resolves, the controls and sync-count included. *)
  List.iter
    (fun (module S : Counter.Counter_intf.S) ->
      let name = S.name in
      match Baselines.Registry.find_concurrent name with
      | Some (module C : Counter.Counter_intf.CONCURRENT) ->
          check Alcotest.string "find_concurrent" name C.name
      | None -> Alcotest.failf "find_concurrent misses %s" name)
    (Baselines.Registry.all
    @ (Baselines.Registry.sync_count :: Baselines.Registry.broken))

(* The host checks origins at the call, for every counter and every
   entry point; a rejected call leaves the counter usable. *)
module type BATCH = sig
  include Counter.Counter_intf.CONCURRENT

  val run_batch : t -> origins:int list -> (int * int) list
end

module type TIMED_BATCH = sig
  include BATCH

  val run_batch_timed :
    t -> ?stagger:float -> origins:int list -> unit -> Counter.History.op list
end

let batch_counters : (module BATCH) list =
  [
    (module Core.Retire_counter);
    (module Baselines.Static_tree);
    (module Baselines.Combining_tree);
    (module Baselines.Counting_network);
    (module Baselines.Periodic_counter);
    (module Baselines.Diffracting_tree);
  ]

let rejects what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: accepted" what

let test_origins_checked_at_the_call () =
  List.iter
    (fun (module S : Counter.Counter_intf.S) ->
      let (module C : Counter.Counter_intf.CONCURRENT) =
        Option.get (Baselines.Registry.find_concurrent S.name)
      in
      let n = C.supported_n 8 in
      let c = C.create ~n () in
      List.iter
        (fun origin ->
          let what call = Printf.sprintf "%s: %s ~origin:%d" C.name call origin in
          rejects (what "inc_result") (fun () -> C.inc_result c ~origin);
          rejects (what "launch_at") (fun () ->
              C.launch_at c ~op:0 ~origin ~at:0.))
        [ 0; n + 1 ];
      C.run_open c;
      check Alcotest.int (C.name ^ ": nothing launched") 0
        (List.length (C.completions c));
      match C.inc_result c ~origin:1 with
      | Counter.Counter_intf.Completed v ->
          check Alcotest.int (C.name ^ ": first value") 0 v
      | Counter.Counter_intf.Stalled r -> Alcotest.failf "%s: %s" C.name r)
    (Baselines.Registry.all
    @ (Baselines.Registry.sync_count :: Baselines.Registry.broken));
  List.iter
    (fun (module B : BATCH) ->
      let n = B.supported_n 8 in
      let c = B.create ~n () in
      List.iter
        (fun origin ->
          rejects
            (Printf.sprintf "%s: run_batch ~origins:[%d]" B.name origin)
            (fun () -> B.run_batch c ~origins:[ 1; origin ]))
        [ 0; n + 1 ];
      check Alcotest.int (B.name ^ ": first value") 0 (B.inc c ~origin:1))
    batch_counters

(* One batch rule for every counter that offers batches: not empty, each
   origin once, results in completion order. *)
let test_batch_rule () =
  List.iter
    (fun (module B : BATCH) ->
      let c = B.create ~n:(B.supported_n 16) () in
      rejects (B.name ^ ": empty batch") (fun () -> B.run_batch c ~origins:[]);
      rejects (B.name ^ ": [3; 3]") (fun () ->
          B.run_batch c ~origins:[ 3; 3 ]);
      let results = B.run_batch c ~origins:[ 5; 3; 1 ] in
      check
        Alcotest.(list int)
        (B.name ^ ": every origin once")
        [ 1; 3; 5 ]
        (List.sort Int.compare (List.map fst results));
      check
        Alcotest.(list int)
        (B.name ^ ": values 0..2")
        [ 0; 1; 2 ]
        (List.sort Int.compare (List.map snd results)))
    batch_counters;
  List.iter
    (fun (module B : TIMED_BATCH) ->
      let c = B.create ~n:(B.supported_n 16) () in
      let timed =
        B.run_batch_timed c ~stagger:2.0
          ~origins:(List.init 8 (fun i -> i + 1))
          ()
      in
      check Alcotest.int (B.name ^ ": timed batch size") 8 (List.length timed);
      let start =
        (List.find (fun (o : Counter.History.op) -> o.origin = 1) timed)
          .invoked_at
      in
      ignore
        (List.fold_left
           (fun last (o : Counter.History.op) ->
             if o.completed_at < last then
               Alcotest.failf "%s: results not in completion order" B.name;
             check (Alcotest.float 0.)
               (Printf.sprintf "%s: op from %d invoked at its stagger" B.name
                  o.origin)
               (float_of_int (o.origin - 1) *. 2.0)
               (o.invoked_at -. start);
             o.completed_at)
           neg_infinity timed))
    [
      (module Core.Retire_counter : TIMED_BATCH);
      (module Baselines.Static_tree);
      (module Baselines.Counting_network);
      (module Baselines.Periodic_counter);
      (module Baselines.Diffracting_tree);
    ]

let test_names_unique () =
  let names = List.sort compare (Baselines.Registry.names ()) in
  Alcotest.(check bool)
    "names unique" true
    (List.sort_uniq compare names = names)

(* ------------------------------------------------------------------ *)
(* A deliberately broken counter: each processor counts locally and
   exchanges no messages. It violates the Hot Spot Lemma's premise and
   returns wrong values — proving our checkers detect real breakage.
   Lives in the baselines library (Registry.broken) so the model checker
   can sweep it too. *)

module Amnesiac = Baselines.Amnesiac

let test_broken_counter_fails_checks () =
  let r =
    Counter.Driver.run (module Amnesiac) ~n:8
      ~schedule:(Counter.Schedule.Round_robin 16)
  in
  Alcotest.(check bool) "wrong values detected" false
    (r.values_exact && r.sequentially_ordered);
  Alcotest.(check bool) "hot spot violation detected" false r.hotspot_ok;
  (* Each op touches only its origin and round-robin origins differ, so
     every one of the 15 consecutive pairs is disjoint. *)
  check Alcotest.int "violations counted" 15 r.hotspot_violations;
  let c = Amnesiac.create ~n:8 () in
  List.iter
    (fun origin -> ignore (Amnesiac.inc_result c ~origin))
    (List.init 16 (fun i -> (i mod 8) + 1));
  match Counter.Hotspot.check (Amnesiac.traces c) with
  | v :: _ ->
      check Alcotest.(list int) "first violation: ops #0 (p1), #1 (p2)"
        [ 0; 1; 1; 2 ]
        [ v.first_op; v.second_op; v.first_origin; v.second_origin ]
  | [] -> Alcotest.fail "no violation"

let test_broken_counter_violates_lower_bound () =
  (* Zero messages: the lower bound is unsatisfiable — which is exactly
     why no correct counter can work this way. *)
  let r = Counter.Driver.run_each_once (module Amnesiac) ~n:8 in
  Alcotest.(check bool) "bound violated" false
    (Core.Lower_bound.satisfied_by ~n:r.n ~bottleneck_load:r.bottleneck_load)

(* ------------------------------------------------------------------ *)
(* The Hot Spot check against a Set.Make (Int) reference. *)

module Int_set = Set.Make (Int)

(* A generated trace: origin, (src, dst) messages, and whether a fault
   fired while it was open. *)
type trace_spec = int * (int * int) list * bool

let build_traces (specs : trace_spec list) =
  List.mapi
    (fun op_index (origin, msgs, faulted) ->
      let t = Sim.Trace.create ~op_index ~origin () in
      List.iteri
        (fun i (src, dst) ->
          Sim.Trace.record t
            { Sim.Trace.seq = i + 1; time = float_of_int i; src; dst; tag = "m"; parent = i })
        msgs;
      if faulted then
        Sim.Trace.record_fault t
          { Sim.Trace.fault_time = 0.; fault_src = origin; fault_dst = origin; kind = Sim.Trace.Crashed };
      t)
    specs

let ref_set t =
  List.fold_left
    (fun acc (e : Sim.Trace.event) -> Int_set.add e.src (Int_set.add e.dst acc))
    (Int_set.singleton (Sim.Trace.origin t))
    (Sim.Trace.events t)

let ref_intersects a b = not (Int_set.disjoint (ref_set a) (ref_set b))

let ref_check traces =
  let rec walk acc = function
    | a :: (b :: _ as rest) ->
        let acc =
          if ref_intersects a b then acc
          else
            {
              Counter.Hotspot.first_op = Sim.Trace.op_index a;
              second_op = Sim.Trace.op_index b;
              first_origin = Sim.Trace.origin a;
              second_origin = Sim.Trace.origin b;
            }
            :: acc
        in
        walk acc rest
    | [ _ ] | [] -> List.rev acc
  in
  walk [] traces

(* The rule as segments: a faulted trace closes one, a message-less one
   is left out, and each segment is checked on its own, oldest first. *)
let ref_check_under_faults traces =
  let close seg segs = if seg = [] then segs else List.rev seg :: segs in
  let seg, segs =
    List.fold_left
      (fun (seg, segs) t ->
        if Sim.Trace.fault_count t > 0 then ([], close seg segs)
        else if Sim.Trace.message_count t = 0 then (seg, segs)
        else (t :: seg, segs))
      ([], []) traces
  in
  List.concat_map ref_check (List.rev (close seg segs))

let violation_t =
  Alcotest.testable Counter.Hotspot.pp_violation ( = )

let test_check_under_faults_oldest_first () =
  (* ops 0|1 disjoint; op 2 faulted; op 4 sent nothing, and shares p8
     with op 3, so only skipping it pairs 3 with 5, which are disjoint. *)
  let traces =
    build_traces
      [
        (1, [ (1, 2) ], false);
        (3, [ (3, 4) ], false);
        (5, [ (5, 6) ], true);
        (7, [ (7, 8) ], false);
        (8, [], false);
        (9, [ (9, 10) ], false);
      ]
  in
  let v first_op second_op first_origin second_origin =
    { Counter.Hotspot.first_op; second_op; first_origin; second_origin }
  in
  Alcotest.(check (list violation_t))
    "both segments, oldest first"
    [ v 0 1 1 3; v 3 5 7 9 ]
    (Counter.Hotspot.check_under_faults traces);
  Alcotest.(check (list violation_t))
    "plain check sees every disjoint pair"
    [ v 0 1 1 3; v 1 2 3 5; v 2 3 5 7; v 4 5 8 9 ]
    (Counter.Hotspot.check traces)

(* Ids from a small range make shared and disjoint pairs both common;
   the sparse mode mixes in huge and negative ids, and zero-length
   message lists and lists of length 0 and 1 come up often. *)
let gen_specs =
  let open QCheck2.Gen in
  let wide = oneofl [ min_int; max_int; -(1 lsl 40); 1 lsl 40; 999_983; -7 ] in
  let* ids =
    oneofl [ int_range 0 6; int_range (-5) 2; oneof [ int_range 0 3; wide ] ]
  in
  let trace =
    triple ids (list_size (int_range 0 4) (pair ids ids)) (map (( = ) 0) (int_range 0 5))
  in
  list_size (int_range 0 8) trace

let print_specs =
  QCheck2.Print.(list (triple int (list (pair int int)) bool))

let prop_matches_set_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"matches the set reference" ~count:1000
       ~print:print_specs gen_specs (fun specs ->
         let traces = build_traces specs in
         let probes =
           0 :: -1 :: max_int :: min_int
           :: List.concat_map
                (fun (o, msgs, _) -> o :: List.concat_map (fun (a, b) -> [ a; b ]) msgs)
                specs
         in
         Counter.Hotspot.check traces = ref_check traces
         && Counter.Hotspot.holds traces = (ref_check traces = [])
         && Counter.Hotspot.check_under_faults traces = ref_check_under_faults traces
         && List.for_all
              (fun t ->
                Sim.Trace.processors t = Int_set.elements (ref_set t)
                && List.for_all
                     (fun q -> Sim.Trace.touches t q = Int_set.mem q (ref_set t))
                     probes
                && List.for_all
                     (fun u -> Sim.Trace.intersects t u = ref_intersects t u)
                     traces)
              traces))

(* ------------------------------------------------------------------ *)
(* Schedules *)

let test_schedule_each_once () =
  let rng = Sim.Rng.create ~seed:1 in
  Alcotest.(check (list int))
    "identity order" [ 1; 2; 3; 4 ]
    (Counter.Schedule.origins Counter.Schedule.Each_once rng ~n:4)

let test_schedule_shuffled_is_permutation () =
  let rng = Sim.Rng.create ~seed:1 in
  let o = Counter.Schedule.origins Counter.Schedule.Each_once_shuffled rng ~n:20 in
  Alcotest.(check (list int))
    "permutation" (List.init 20 (fun i -> i + 1))
    (List.sort compare o)

let test_schedule_round_robin () =
  let rng = Sim.Rng.create ~seed:1 in
  Alcotest.(check (list int))
    "wraps" [ 1; 2; 3; 1; 2 ]
    (Counter.Schedule.origins (Counter.Schedule.Round_robin 5) rng ~n:3)

let test_schedule_explicit_range_checked () =
  let rng = Sim.Rng.create ~seed:1 in
  match
    Counter.Schedule.origins (Counter.Schedule.Explicit [ 1; 9 ]) rng ~n:4
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected range check"

let test_schedule_ops () =
  check Alcotest.int "each once" 7 (Counter.Schedule.ops Counter.Schedule.Each_once ~n:7);
  check Alcotest.int "random" 30 (Counter.Schedule.ops (Counter.Schedule.Random 30) ~n:7)

let prop_random_schedule_in_range =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random schedules stay in range" ~count:100
       QCheck2.Gen.(pair (int_range 1 50) (int_range 0 100))
       (fun (n, ops) ->
         let rng = Sim.Rng.create ~seed:(n + ops) in
         let o = Counter.Schedule.origins (Counter.Schedule.Random ops) rng ~n in
         List.for_all (fun p -> p >= 1 && p <= n) o))

let () =
  ignore name_of;
  Alcotest.run "counters"
    [
      ( "conformance",
        [
          Alcotest.test_case "each-once correct" `Quick test_each_once_correct;
          Alcotest.test_case "hot spot lemma" `Quick test_hotspot_lemma;
          Alcotest.test_case "lower bound satisfied" `Quick test_lower_bound;
          Alcotest.test_case "deterministic given seed" `Quick test_deterministic_given_seed;
          Alcotest.test_case "all schedules correct" `Slow test_schedules_all_correct;
          Alcotest.test_case "clone preserves future" `Quick test_clone_preserves_future;
          Alcotest.test_case "supported_n idempotent" `Quick test_supported_n_idempotent;
          Alcotest.test_case "values monotone" `Quick test_values_monotone_across_origins;
          Alcotest.test_case "correct under async delays" `Slow test_correct_under_async_delays;
          Alcotest.test_case "latency fields sane" `Quick test_latency_fields_sane;
          Alcotest.test_case "central latency = 2 hops" `Quick test_latency_central_is_two_hops;
          Alcotest.test_case "duration = critical path" `Quick test_duration_equals_critical_path;
          Alcotest.test_case "delivery order topological" `Quick test_dags_topologically_delivered;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "sequential history" `Quick test_history_linearizable;
          Alcotest.test_case "violation detected" `Quick test_history_violation_detected;
          Alcotest.test_case "overlap permits any order" `Quick test_history_overlap_permits_any_order;
          Alcotest.test_case "contiguity" `Quick test_history_contiguity;
          Alcotest.test_case "retire tree always linearizable" `Quick test_retire_tree_staggered_always_linearizable;
          Alcotest.test_case "counting net violates (HSW)" `Quick test_counting_network_violates_under_overlap;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "names unique" `Quick test_names_unique;
          Alcotest.test_case "origins checked at the call" `Quick
            test_origins_checked_at_the_call;
          Alcotest.test_case "one batch rule" `Quick test_batch_rule;
        ] );
      ( "negative-control",
        [
          Alcotest.test_case "broken counter detected" `Quick test_broken_counter_fails_checks;
          Alcotest.test_case "broken counter misses bound" `Quick test_broken_counter_violates_lower_bound;
        ] );
      ( "hot spot check",
        [
          Alcotest.test_case "under faults: oldest segment first" `Quick
            test_check_under_faults_oldest_first;
          prop_matches_set_reference;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "each once" `Quick test_schedule_each_once;
          Alcotest.test_case "shuffled permutation" `Quick test_schedule_shuffled_is_permutation;
          Alcotest.test_case "round robin" `Quick test_schedule_round_robin;
          Alcotest.test_case "explicit range check" `Quick test_schedule_explicit_range_checked;
          Alcotest.test_case "ops" `Quick test_schedule_ops;
          prop_random_schedule_in_range;
        ] );
    ]
