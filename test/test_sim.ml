(* Tests for the simulator substrate: Rng, Heap, Delay, Trace, Comm_list,
   Metrics, Network. *)

let check = Alcotest.check

module Heap = Sim.Heap

(* A trivial ping protocol used by the network and DAG tests: processor p
   sends "ping" to q, q replies "pong". *)
type ping = Ping | Pong

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:123 and b = Sim.Rng.create ~seed:123 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  let draws_a = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let draws_b = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" true (draws_a <> draws_b)

let test_rng_bounds () =
  let rng = Sim.Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Sim.Rng.int_in rng ~lo:5 ~hi:9 in
    Alcotest.(check bool) "in inclusive range" true (v >= 5 && v <= 9)
  done

let test_rng_split_independent () =
  let parent = Sim.Rng.create ~seed:99 in
  let child = Sim.Rng.split parent in
  (* The child stream must not be a shifted copy of the parent stream. *)
  let a = List.init 10 (fun _ -> Sim.Rng.bits64 parent) in
  let b = List.init 10 (fun _ -> Sim.Rng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_copy () =
  let a = Sim.Rng.create ~seed:5 in
  ignore (Sim.Rng.int a 10);
  let b = Sim.Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int "copy tracks" (Sim.Rng.int a 999) (Sim.Rng.int b 999)
  done

let test_rng_permutation () =
  let rng = Sim.Rng.create ~seed:3 in
  let p = Sim.Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int))
    "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_float_bounds () =
  let rng = Sim.Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (v >= 0. && v < 2.5)
  done

let prop_rng_int_uniformish =
  QCheck2.Test.make ~name:"rng hits every residue eventually"
    ~count:20
    QCheck2.Gen.(int_range 2 12)
    (fun bound ->
      let rng = Sim.Rng.create ~seed:bound in
      let seen = Array.make bound false in
      for _ = 1 to 200 * bound do
        seen.(Sim.Rng.int rng bound) <- true
      done;
      Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter
    (fun (p, v) -> Heap.push h ~prio:p v)
    [ (3., "c"); (1., "a"); (2., "b"); (0.5, "z") ];
  let order = List.map snd (Heap.to_sorted_list h) in
  Alcotest.(check (list string)) "pop order" [ "z"; "a"; "b"; "c" ] order

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~prio:1.0 v) [ 1; 2; 3; 4; 5 ];
  let order = List.map snd (Heap.to_sorted_list h) in
  Alcotest.(check (list int)) "ties are FIFO" [ 1; 2; 3; 4; 5 ] order

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~prio:2. "b";
  Heap.push h ~prio:1. "a";
  (match Heap.pop h with
  | Some (p, v) ->
      check (Alcotest.float 0.0) "prio" 1. p;
      check Alcotest.string "value" "a" v
  | None -> Alcotest.fail "expected element");
  Heap.push h ~prio:0.5 "z";
  (match Heap.pop h with
  | Some (_, v) -> check Alcotest.string "later insert wins" "z" v
  | None -> Alcotest.fail "expected element");
  check Alcotest.int "size" 1 (Heap.size h)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~prio:1. 1;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_matches_sorted_model =
  QCheck2.Test.make ~name:"heap pops = stable sort by priority" ~count:200
    QCheck2.Gen.(list (pair (float_bound_inclusive 100.) small_int))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.push h ~prio:p v) items;
      let popped = Heap.to_sorted_list h in
      (* Model: stable sort on priority preserves insertion order of
         ties, like the heap's sequence numbers. *)
      let model =
        List.stable_sort
          (fun (p1, _) (p2, _) -> compare p1 p2)
          items
      in
      popped = model)

(* ------------------------------------------------------------------ *)
(* Delay *)

let test_delay_constant () =
  let rng = Sim.Rng.create ~seed:1 in
  for _ = 1 to 10 do
    check (Alcotest.float 0.0) "constant" 1.5
      (Sim.Delay.sample (Sim.Delay.Constant 1.5) rng)
  done

let test_delay_positive () =
  let rng = Sim.Rng.create ~seed:1 in
  List.iter
    (fun d ->
      for _ = 1 to 500 do
        Alcotest.(check bool) "positive" true (Sim.Delay.sample d rng > 0.)
      done)
    [
      Sim.Delay.Constant 0.;
      Sim.Delay.Uniform (0., 1.);
      Sim.Delay.Exponential 1.0;
      Sim.Delay.Adversarial_jitter 1.0;
    ]

let test_delay_uniform_range () =
  let rng = Sim.Rng.create ~seed:2 in
  for _ = 1 to 500 do
    let v = Sim.Delay.sample (Sim.Delay.Uniform (2., 5.)) rng in
    Alcotest.(check bool) "in [2,5)" true (v >= 2. && v < 5.)
  done

let test_delay_parse_roundtrip () =
  List.iter
    (fun d ->
      match Sim.Delay.of_string (Sim.Delay.to_string d) with
      | Ok d' ->
          check Alcotest.string "roundtrip" (Sim.Delay.to_string d)
            (Sim.Delay.to_string d')
      | Error e -> Alcotest.fail e)
    [
      Sim.Delay.Constant 1.;
      Sim.Delay.Uniform (0.5, 2.);
      Sim.Delay.Exponential 3.;
      Sim.Delay.Adversarial_jitter 0.1;
    ]

let test_delay_parse_errors () =
  List.iter
    (fun s ->
      match Sim.Delay.of_string s with
      | Ok _ -> Alcotest.failf "should not parse: %s" s
      | Error _ -> ())
    [
      "";
      "constant";
      "uniform:1";
      "exp:x";
      "nope:1";
      "constant:-1";
      "constant:0";
      "constant:inf";
      "constant:nan";
      "exp:0";
      "exp:-1";
      "jitter:-2";
      "jitter:0";
      "uniform:2,1";
      "uniform:-1,1";
      "uniform:0,0";
      "uniform:0,inf";
    ]

(* ------------------------------------------------------------------ *)
(* Trace / Comm_list *)

let make_trace events =
  let t = Sim.Trace.create ~op_index:0 ~origin:3 () in
  List.iteri
    (fun i (src, dst) ->
      Sim.Trace.record t
        { Sim.Trace.seq = i + 1; time = float_of_int i; src; dst; tag = "m"; parent = i })
    events;
  t

let test_trace_processors () =
  let t = make_trace [ (3, 11); (11, 17); (17, 3) ] in
  Alcotest.(check (list int)) "I_p" [ 3; 11; 17 ] (Sim.Trace.processors t);
  Alcotest.(check bool) "touches" true (Sim.Trace.touches t 11);
  Alcotest.(check bool) "not touches" false (Sim.Trace.touches t 12)

let test_trace_empty_includes_origin () =
  let t = make_trace [] in
  Alcotest.(check (list int)) "origin only" [ 3 ] (Sim.Trace.processors t);
  check Alcotest.int "no messages" 0 (Sim.Trace.message_count t)

let test_trace_intersects () =
  let a = make_trace [ (3, 11) ] in
  let b = make_trace [ (3, 17) ] in
  Alcotest.(check bool) "share origin 3" true (Sim.Trace.intersects a b);
  let c =
    let t = Sim.Trace.create ~op_index:1 ~origin:20 () in
    Sim.Trace.record t
      { Sim.Trace.seq = 1; time = 0.; src = 20; dst = 21; tag = "m"; parent = 0 };
    t
  in
  Alcotest.(check bool) "disjoint" false (Sim.Trace.intersects a c)

let test_trace_duration () =
  let t = Sim.Trace.create ~start_time:3.0 ~op_index:0 ~origin:1 () in
  check (Alcotest.float 1e-9) "empty duration" 0. (Sim.Trace.duration t);
  Sim.Trace.record t
    { Sim.Trace.seq = 1; time = 4.0; src = 1; dst = 2; tag = "m"; parent = 0 };
  Sim.Trace.record t
    { Sim.Trace.seq = 2; time = 6.5; src = 2; dst = 1; tag = "m"; parent = 1 };
  check (Alcotest.float 1e-9) "duration" 3.5 (Sim.Trace.duration t)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let test_trace_to_dot () =
  let t = make_trace [ (3, 11); (11, 17); (17, 3) ] in
  let dot = Sim.Trace.to_dot t in
  Alcotest.(check bool) "digraph" true (contains_substring dot "digraph");
  Alcotest.(check bool) "has origin node" true
    (contains_substring dot "[label=\"3\"]");
  Alcotest.(check bool) "has arcs" true (contains_substring dot "->");
  (* The origin both starts the process and receives the final message:
     it must appear as TWO dag nodes (two label-3 declarations). *)
  let count_label3 =
    let needle = "[label=\"3\"];" in
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length dot then acc
      else if String.sub dot i nl = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check Alcotest.int "origin appears twice" 2 count_label3

let test_comm_list_structure () =
  (* The paper's Fig. 1 example flattened: 3 -> 11 -> 17 -> 27, 17 -> 7,
     7 -> 3 (answer). Delivery order gives topological order. *)
  let t = make_trace [ (3, 11); (11, 17); (17, 27); (17, 7); (7, 3) ] in
  let l = Sim.Comm_list.of_trace t in
  check Alcotest.int "origin" 3 (Sim.Comm_list.origin l);
  check Alcotest.int "length = messages (no dups here)" 5
    (Sim.Comm_list.length l);
  Alcotest.(check (list int))
    "nodes" [ 3; 11; 17; 27; 7; 3 ]
    (Sim.Comm_list.nodes l)

let test_comm_list_merges_consecutive () =
  (* Two consecutive deliveries to the same processor merge into one DAG
     node in the list. *)
  let t = make_trace [ (3, 11); (5, 11); (11, 9) ] in
  let l = Sim.Comm_list.of_trace t in
  Alcotest.(check (list int)) "merged" [ 3; 11; 9 ] (Sim.Comm_list.nodes l)

let test_comm_list_empty () =
  let t = make_trace [] in
  let l = Sim.Comm_list.of_trace t in
  check Alcotest.int "length 0" 0 (Sim.Comm_list.length l);
  check Alcotest.int "label 1 = origin" 3 (Sim.Comm_list.label l 1)

let test_comm_list_label_out_of_range () =
  let l = Sim.Comm_list.of_trace (make_trace []) in
  Alcotest.check_raises "label 0" (Invalid_argument "Comm_list.label: position out of range")
    (fun () -> ignore (Sim.Comm_list.label l 0))

let test_trace_pp_lanes () =
  let t = make_trace [ (3, 11); (11, 3) ] in
  let s = Format.asprintf "%a" Sim.Trace.pp_lanes t in
  Alcotest.(check bool) "has header lanes" true
    (contains_substring s "p3" && contains_substring s "p11");
  Alcotest.(check bool) "has forward arrow" true (contains_substring s "*-");
  Alcotest.(check bool) "has backward arrow" true (contains_substring s "<-")

(* ------------------------------------------------------------------ *)
(* Dag *)

(* A trace with explicit causal structure: a chain 3->1->2 plus a fan-out
   1->4, 1->5 caused by event 1's delivery. *)
let causal_trace () =
  let t = Sim.Trace.create ~op_index:0 ~origin:3 () in
  List.iter
    (fun (seq, src, dst, parent) ->
      Sim.Trace.record t
        {
          Sim.Trace.seq;
          time = float_of_int seq;
          src;
          dst;
          tag = "m";
          parent;
        })
    [ (1, 3, 1, 0); (2, 1, 2, 1); (3, 1, 4, 1); (4, 1, 5, 1); (5, 2, 6, 2) ];
  t

let test_dag_structure () =
  let d = Sim.Dag.of_trace (causal_trace ()) in
  check Alcotest.int "events" 5 (Sim.Dag.event_count d);
  (* Chain 3->1->2->6 has length 3. *)
  check Alcotest.int "critical path" 3 (Sim.Dag.critical_path d);
  (* Depth 2 holds events 2,3,4 (to processors 2, 4, 5). *)
  check Alcotest.int "max width" 3 (Sim.Dag.max_width d);
  Alcotest.(check (array int)) "profile" [| 1; 3; 1 |] (Sim.Dag.depth_profile d);
  Alcotest.(check bool) "delivery order topological" true
    (Sim.Dag.consistent_with_delivery_order d)

let test_dag_empty () =
  let t = Sim.Trace.create ~op_index:0 ~origin:7 () in
  let d = Sim.Dag.of_trace t in
  check Alcotest.int "no events" 0 (Sim.Dag.event_count d);
  check Alcotest.int "no path" 0 (Sim.Dag.critical_path d);
  check Alcotest.int "no width" 0 (Sim.Dag.max_width d)

let test_dag_from_real_network () =
  (* Drive a real protocol: 1 pings 2 and 3; each replies. The DAG must
     be a depth-2 tree of width 2, and the dot output must hang the first
     sends off the virtual source. *)
  let net = Sim.Network.create ~n:3 () in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      match msg with
      | Ping -> Sim.Network.send net ~src:self ~dst:src Pong
      | Pong -> ());
  Sim.Network.begin_op net ~origin:1;
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  Sim.Network.send net ~src:1 ~dst:3 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  let d = Sim.Dag.of_trace (Sim.Network.end_op net) in
  check Alcotest.int "events" 4 (Sim.Dag.event_count d);
  check Alcotest.int "critical path" 2 (Sim.Dag.critical_path d);
  check Alcotest.int "width" 2 (Sim.Dag.max_width d);
  Alcotest.(check bool) "topological" true
    (Sim.Dag.consistent_with_delivery_order d);
  let dot = Sim.Dag.to_dot d in
  Alcotest.(check bool) "has source" true
    (contains_substring dot "doublecircle")

let test_dag_timer_causality () =
  (* A timer armed while handling a delivery passes that delivery on as
     the causal parent of anything the timer sends. *)
  let net = Sim.Network.create ~n:2 () in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      match msg with
      | Ping ->
          Sim.Network.schedule_local net ~delay:1.0 (fun () ->
              Sim.Network.send net ~src:self ~dst:src Pong)
      | Pong -> ());
  Sim.Network.begin_op net ~origin:1;
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  let d = Sim.Dag.of_trace (Sim.Network.end_op net) in
  (* Ping then Pong: the Pong's parent is the Ping delivery, so the chain
     has length 2 even though the Pong was sent from a timer. *)
  check Alcotest.int "critical path through timer" 2 (Sim.Dag.critical_path d)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_accounting () =
  let m = Sim.Metrics.create ~n:5 in
  Sim.Metrics.on_send m 1;
  Sim.Metrics.on_recv m 2;
  Sim.Metrics.on_send m 2;
  Sim.Metrics.on_recv m 1;
  check Alcotest.int "load p1" 2 (Sim.Metrics.load m 1);
  check Alcotest.int "load p2" 2 (Sim.Metrics.load m 2);
  check Alcotest.int "sent p1" 1 (Sim.Metrics.sent m 1);
  check Alcotest.int "recv p1" 1 (Sim.Metrics.received m 1);
  check Alcotest.int "total messages" 2 (Sim.Metrics.total_messages m);
  check Alcotest.int "total load" 4 (Sim.Metrics.total_load m)

let test_metrics_bottleneck () =
  let m = Sim.Metrics.create ~n:5 in
  for _ = 1 to 3 do
    Sim.Metrics.on_send m 4
  done;
  Sim.Metrics.on_send m 2;
  let p, l = Sim.Metrics.bottleneck m in
  check Alcotest.int "bottleneck proc" 4 p;
  check Alcotest.int "bottleneck load" 3 l

let test_metrics_overflow () =
  let m = Sim.Metrics.create ~n:3 in
  Sim.Metrics.on_send m 10;
  check Alcotest.int "overflow count" 1 (Sim.Metrics.overflow_processors m);
  check Alcotest.int "load beyond n" 1 (Sim.Metrics.load m 10)

let test_metrics_copy_independent () =
  let m = Sim.Metrics.create ~n:3 in
  Sim.Metrics.on_send m 1;
  let c = Sim.Metrics.copy m in
  Sim.Metrics.on_send m 1;
  check Alcotest.int "copy froze" 1 (Sim.Metrics.load c 1);
  check Alcotest.int "original moved" 2 (Sim.Metrics.load m 1)

(* ------------------------------------------------------------------ *)
(* Network *)

let test_network_delivery_and_charges () =
  let net = Sim.Network.create ~n:3 () in
  let got_pong = ref false in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      match msg with
      | Ping -> Sim.Network.send net ~src:self ~dst:src Pong
      | Pong -> got_pong := true);
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  let steps = Sim.Network.run_to_quiescence net in
  check Alcotest.int "two deliveries" 2 steps;
  Alcotest.(check bool) "pong received" true !got_pong;
  let m = Sim.Network.metrics net in
  check Alcotest.int "p1 load" 2 (Sim.Metrics.load m 1);
  check Alcotest.int "p2 load" 2 (Sim.Metrics.load m 2);
  check Alcotest.int "p3 untouched" 0 (Sim.Metrics.load m 3)

let test_network_trace_capture () =
  let net = Sim.Network.create ~n:3 () in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      match msg with
      | Ping -> Sim.Network.send net ~src:self ~dst:src Pong
      | Pong -> ());
  Sim.Network.begin_op net ~origin:1;
  Sim.Network.send net ~src:1 ~dst:3 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  let trace = Sim.Network.end_op net in
  check Alcotest.int "messages" 2 (Sim.Trace.message_count trace);
  Alcotest.(check (list int)) "I_p" [ 1; 3 ] (Sim.Trace.processors trace)

let test_network_time_advances () =
  let net = Sim.Network.create ~delay:(Sim.Delay.Constant 2.0) ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ _ -> ());
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  check (Alcotest.float 1e-9) "clock" 2.0 (Sim.Network.now net)

let test_network_local_timers_free () =
  let net = Sim.Network.create ~n:2 () in
  let fired = ref false in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : ping) -> ());
  Sim.Network.schedule_local net ~delay:1.0 (fun () -> fired := true);
  ignore (Sim.Network.run_to_quiescence net);
  Alcotest.(check bool) "fired" true !fired;
  check Alcotest.int "no messages" 0
    (Sim.Metrics.total_messages (Sim.Network.metrics net))

let test_network_quiescence_guard () =
  (* A protocol that forwards forever must trip the step guard. *)
  let net = Sim.Network.create ~n:2 () in
  Sim.Network.set_handler net (fun ~self ~src (_ : ping) ->
      Sim.Network.send net ~src:self ~dst:src Ping);
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  match Sim.Network.run_to_quiescence ~max_steps:100 net with
  | exception Sim.Network.Storm { max_steps; pending; now; deliveries } ->
      check Alcotest.int "guard limit carried" 100 max_steps;
      check Alcotest.bool "still pending" true (pending > 0);
      check Alcotest.bool "time advanced" true (now > 0.);
      check Alcotest.int "deliveries = steps taken" 100 deliveries
  | _ -> Alcotest.fail "expected divergence guard"

let test_network_clone_requires_quiescence () =
  let net = Sim.Network.create ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : ping) -> ());
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  (match Sim.Network.clone_quiescent net with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected clone failure with pending message");
  ignore (Sim.Network.run_to_quiescence net);
  let clone = Sim.Network.clone_quiescent net in
  check Alcotest.int "metrics carried" 1
    (Sim.Metrics.total_messages (Sim.Network.metrics clone))

let test_network_fifo_under_constant_delay () =
  let net = Sim.Network.create ~delay:(Sim.Delay.Constant 1.0) ~n:2 () in
  let received = ref [] in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ msg ->
      received := msg :: !received);
  List.iter (fun i -> Sim.Network.send net ~src:1 ~dst:2 i) [ 1; 2; 3; 4 ];
  ignore (Sim.Network.run_to_quiescence net);
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3; 4 ] (List.rev !received)

let test_network_bits_accounting () =
  let bits = function Ping -> 10 | Pong -> 3 in
  let net = Sim.Network.create ~bits ~n:2 () in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      match msg with
      | Ping -> Sim.Network.send net ~src:self ~dst:src Pong
      | Pong -> ());
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "total bits" 13 (Sim.Network.total_bits net);
  check Alcotest.int "max bits" 10 (Sim.Network.max_message_bits net)

let test_network_bits_default_zero () =
  let net = Sim.Network.create ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : ping) -> ());
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "unmeasured" 0 (Sim.Network.total_bits net)

let test_network_same_link_overtaking () =
  (* Links are not FIFO: under a non-constant delay model each message
     draws its own latency, so same-link messages may overtake one
     another (this seed reorders them). *)
  let net =
    Sim.Network.create ~delay:(Sim.Delay.Exponential 1.0) ~seed:9 ~n:2 ()
  in
  let received = ref [] in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ msg ->
      received := msg :: !received);
  let sent = List.init 20 Fun.id in
  List.iter (fun i -> Sim.Network.send net ~src:1 ~dst:2 i) sent;
  ignore (Sim.Network.run_to_quiescence net);
  let received = List.rev !received in
  Alcotest.(check (list int)) "every message arrives" sent
    (List.sort Int.compare received);
  Alcotest.(check bool) "out of send order" true (received <> sent)

let test_network_scheduler_mode () =
  (* Scheduler mode runs the same delivery and timer routines as the
     timed engine, under a fixed policy: always take the last enabled
     choice. Processor 3 answers a Ping at once; processor 2 answers and
     also arms a timer that sends a second Pong. The clock is logical,
     +1 per event, timers included. *)
  let offered = ref [] in
  let policy choices =
    offered := choices :: !offered;
    Sim.Network.Deliver_next (Array.length choices - 1)
  in
  let label = function Ping -> "ping" | Pong -> "pong" in
  let net =
    Sim.Network.with_scheduler policy (fun () ->
        Sim.Network.create ~label ~n:3 ())
  in
  let clocks = ref [] in
  let tick () = clocks := Sim.Network.now net :: !clocks in
  Sim.Network.set_handler net (fun ~self ~src msg ->
      tick ();
      match msg with
      | Ping ->
          Sim.Network.send net ~src:self ~dst:src Pong;
          if self = 2 then
            Sim.Network.schedule_local net ~delay:5.0 (fun () ->
                tick ();
                Sim.Network.send net ~src:self ~dst:src Pong)
      | Pong -> ());
  Sim.Network.begin_op net ~origin:1;
  Sim.Network.send net ~src:1 ~dst:2 Ping;
  Sim.Network.send net ~src:1 ~dst:3 Ping;
  check Alcotest.int "steps" 6 (Sim.Network.run_to_quiescence net);
  let events = Sim.Trace.events (Sim.Network.end_op net) in
  Alcotest.(check (list (list int)))
    "seq, src, dst, parent"
    [ [ 1; 1; 3; 0 ]; [ 2; 3; 1; 1 ]; [ 3; 1; 2; 0 ]; [ 4; 2; 1; 3 ];
      [ 5; 2; 1; 3 ] ]
    (List.map
       (fun (e : Sim.Trace.event) -> [ e.seq; e.src; e.dst; e.parent ])
       events);
  Alcotest.(check (list string))
    "tags"
    [ "ping"; "pong"; "ping"; "pong"; "pong" ]
    (List.map (fun (e : Sim.Trace.event) -> e.tag) events);
  Alcotest.(check (list (float 0.)))
    "clock +1 per event" [ 1.; 2.; 3.; 4.; 5.; 6. ] (List.rev !clocks);
  Alcotest.(check (list (float 0.)))
    "delivery times" [ 1.; 2.; 3.; 5.; 6. ]
    (List.map (fun (e : Sim.Trace.event) -> e.time) events);
  (* The fourth decision offers the pending 2 -> 1 Pong and the timer
     pseudo-choice, canonically last; the policy takes the timer. *)
  let timer =
    { Sim.Network.link_src = 0; link_dst = 0; link_seq = -1;
      link_tag = "timer" }
  in
  let offered = Array.of_list (List.rev !offered) in
  check Alcotest.int "decisions" 6 (Array.length offered);
  Alcotest.(check bool)
    "timer offered last" true
    (offered.(3)
    = [| { link_src = 2; link_dst = 1; link_seq = -1; link_tag = "pong" };
         timer |])

(* A choice as "src>dst#seq:tag", for readable enabled-set comparisons. *)
let show_choice (c : Sim.Network.choice) =
  Printf.sprintf "%d>%d#%d:%s" c.link_src c.link_dst c.link_seq c.link_tag

let test_network_scheduler_unordered () =
  (* Destination 3 is unordered: every message queued for it is enabled,
     named by its per-link ordinal, while the FIFO link 1 -> 2 offers
     only its head. The array is ordered by (src, dst, ordinal), not by
     send order. *)
  let offered = ref [] in
  let picks = ref [ 2; 0; 0; 0; 0; 0 ] in
  let policy choices =
    offered := List.map show_choice (Array.to_list choices) :: !offered;
    match !picks with
    | i :: rest ->
        picks := rest;
        Sim.Network.Deliver_next i
    | [] -> Sim.Network.Deliver_next 0
  in
  let net =
    Sim.Network.with_scheduler policy (fun () ->
        Sim.Network.create ~label:string_of_int ~n:3 ())
  in
  Sim.Network.declare_unordered net 3;
  let received = ref [] in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ msg ->
      received := msg :: !received);
  List.iter
    (fun (src, dst, msg) -> Sim.Network.send net ~src ~dst msg)
    [ (2, 3, 20); (1, 3, 10); (1, 2, 1); (2, 3, 21); (1, 3, 11); (1, 2, 2) ];
  check Alcotest.int "pending" 6 (Sim.Network.pending net);
  check Alcotest.int "steps" 6 (Sim.Network.run_to_quiescence net);
  Alcotest.(check (list (list string)))
    "first two enabled sets"
    [
      [ "1>2#-1:1"; "1>3#0:10"; "1>3#1:11"; "2>3#0:20"; "2>3#1:21" ];
      [ "1>2#-1:1"; "1>3#0:10"; "2>3#0:20"; "2>3#1:21" ];
    ]
    (match List.rev !offered with a :: b :: _ -> [ a; b ] | l -> l);
  Alcotest.(check (list int))
    "a later send overtakes an earlier one on the unordered link"
    [ 11; 1; 2; 10; 20; 21 ] (List.rev !received)

let test_network_scheduler_crash_sweep () =
  (* Crashing 3 between decisions discards the three messages queued for
     it before the next enumeration: each is charged as a drop and
     annotated in global send order (2 -> 3 first), not in link order. *)
  let net_ref = ref None in
  let seen = ref [] in
  let policy choices =
    let net = Option.get !net_ref in
    seen :=
      ( Sim.Network.pending net,
        Sim.Metrics.dropped (Sim.Network.metrics net),
        List.map show_choice (Array.to_list choices) )
      :: !seen;
    if List.length !seen = 1 then Sim.Network.Crash_now 3
    else Sim.Network.Deliver_next 0
  in
  let net =
    Sim.Network.with_scheduler policy (fun () ->
        Sim.Network.create ~label:(function Ping -> "ping" | Pong -> "pong")
          ~n:3 ())
  in
  net_ref := Some net;
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : ping) -> ());
  Sim.Network.begin_op net ~origin:1;
  List.iter
    (fun (src, dst) -> Sim.Network.send net ~src ~dst Ping)
    [ (2, 3); (1, 3); (1, 2); (2, 3) ];
  check Alcotest.int "steps" 1 (Sim.Network.run_to_quiescence net);
  let trace = Sim.Network.end_op net in
  Alcotest.(check (list (pair int int)))
    "pending and drops at each decision"
    [ (4, 0); (1, 3) ]
    (List.rev_map (fun (p, d, _) -> (p, d)) !seen);
  Alcotest.(check (list string))
    "only the live link is offered after the crash" [ "1>2#-1:ping" ]
    (match !seen with (_, _, c) :: _ -> c | [] -> []);
  Alcotest.(check (list (list int)))
    "crash, then drops in send order"
    [ [ 3; 3; 0 ]; [ 2; 3; 1 ]; [ 1; 3; 1 ]; [ 2; 3; 1 ] ]
    (List.map
       (fun (f : Sim.Trace.fault) ->
         [ f.fault_src; f.fault_dst;
           (match f.kind with Sim.Trace.Dropped -> 1 | _ -> 0) ])
       (Sim.Trace.faults trace))

let test_network_scheduler_clone () =
  (* A scheduler-mode clone keeps the policy and continues each link's
     ordinals from the original, but owns them: sends on the original
     after the clone neither advance the clone's ordinals nor show up in
     its pool. *)
  let offered = ref [] in
  let policy choices =
    offered := List.map show_choice (Array.to_list choices) :: !offered;
    Sim.Network.Deliver_next 0
  in
  let net =
    Sim.Network.with_scheduler policy (fun () ->
        Sim.Network.create ~label:string_of_int ~n:2 ())
  in
  Sim.Network.declare_unordered net 2;
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : int) -> ());
  Sim.Network.send net ~src:1 ~dst:2 0;
  Sim.Network.send net ~src:1 ~dst:2 1;
  ignore (Sim.Network.run_to_quiescence net);
  let clone = Sim.Network.clone_quiescent net in
  check Alcotest.bool "clone is scheduled" true
    (Sim.Network.has_scheduler clone);
  Sim.Network.set_handler clone (fun ~self:_ ~src:_ (_ : int) -> ());
  Sim.Network.send net ~src:1 ~dst:2 2;
  Sim.Network.send clone ~src:1 ~dst:2 7;
  check Alcotest.int "clone pending" 1 (Sim.Network.pending clone);
  offered := [];
  check Alcotest.int "clone steps" 1 (Sim.Network.run_to_quiescence clone);
  ignore (Sim.Network.run_to_quiescence net);
  Alcotest.(check (list (list string)))
    "clone, then original" [ [ "1>2#2:7" ]; [ "1>2#2:2" ] ]
    (List.rev !offered)

let prop_network_message_conservation =
  QCheck2.Test.make ~name:"total load = 2 * messages (echo protocol)"
    ~count:50
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 1 8) (int_range 1 8)))
    (fun sends ->
      let net = Sim.Network.create ~n:8 () in
      Sim.Network.set_handler net (fun ~self ~src msg ->
          match msg with
          | Ping when self <> src -> Sim.Network.send net ~src:self ~dst:src Pong
          | Ping | Pong -> ());
      List.iter (fun (a, b) -> Sim.Network.send net ~src:a ~dst:b Ping) sends;
      ignore (Sim.Network.run_to_quiescence net);
      let m = Sim.Network.metrics net in
      Sim.Metrics.total_load m = 2 * Sim.Metrics.total_messages m)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          q prop_rng_int_uniformish;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          q prop_heap_matches_sorted_model;
        ] );
      ( "delay",
        [
          Alcotest.test_case "constant" `Quick test_delay_constant;
          Alcotest.test_case "strictly positive" `Quick test_delay_positive;
          Alcotest.test_case "uniform range" `Quick test_delay_uniform_range;
          Alcotest.test_case "parse roundtrip" `Quick test_delay_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_delay_parse_errors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "processors" `Quick test_trace_processors;
          Alcotest.test_case "empty has origin" `Quick test_trace_empty_includes_origin;
          Alcotest.test_case "intersects" `Quick test_trace_intersects;
          Alcotest.test_case "duration" `Quick test_trace_duration;
          Alcotest.test_case "dot export" `Quick test_trace_to_dot;
          Alcotest.test_case "lanes chart" `Quick test_trace_pp_lanes;
        ] );
      ( "comm-list",
        [
          Alcotest.test_case "structure" `Quick test_comm_list_structure;
          Alcotest.test_case "merges consecutive" `Quick test_comm_list_merges_consecutive;
          Alcotest.test_case "empty" `Quick test_comm_list_empty;
          Alcotest.test_case "label range" `Quick test_comm_list_label_out_of_range;
        ] );
      ( "dag",
        [
          Alcotest.test_case "structure" `Quick test_dag_structure;
          Alcotest.test_case "empty" `Quick test_dag_empty;
          Alcotest.test_case "from real network" `Quick test_dag_from_real_network;
          Alcotest.test_case "timer causality" `Quick test_dag_timer_causality;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "accounting" `Quick test_metrics_accounting;
          Alcotest.test_case "bottleneck" `Quick test_metrics_bottleneck;
          Alcotest.test_case "overflow ids" `Quick test_metrics_overflow;
          Alcotest.test_case "copy independent" `Quick test_metrics_copy_independent;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery and charges" `Quick test_network_delivery_and_charges;
          Alcotest.test_case "trace capture" `Quick test_network_trace_capture;
          Alcotest.test_case "time advances" `Quick test_network_time_advances;
          Alcotest.test_case "local timers are free" `Quick test_network_local_timers_free;
          Alcotest.test_case "divergence guard" `Quick test_network_quiescence_guard;
          Alcotest.test_case "clone requires quiescence" `Quick test_network_clone_requires_quiescence;
          Alcotest.test_case "FIFO under constant delay" `Quick test_network_fifo_under_constant_delay;
          Alcotest.test_case "bits accounting" `Quick test_network_bits_accounting;
          Alcotest.test_case "bits default zero" `Quick test_network_bits_default_zero;
          Alcotest.test_case "same-link overtaking" `Quick test_network_same_link_overtaking;
          Alcotest.test_case "scheduler mode" `Quick test_network_scheduler_mode;
          q prop_network_message_conservation;
          Alcotest.test_case "scheduler unordered destination" `Quick
            test_network_scheduler_unordered;
          Alcotest.test_case "scheduler crash sweep" `Quick
            test_network_scheduler_crash_sweep;
          Alcotest.test_case "scheduler clone" `Quick
            test_network_scheduler_clone;
        ] );
    ]
