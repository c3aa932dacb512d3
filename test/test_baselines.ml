(* Tests for the baseline counters' specific behaviours: the central
   hotspot, the bitonic network, combining and diffraction under
   concurrency, quorum counters' message geometry. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Central *)

let test_central_holder_is_bottleneck () =
  let r = Counter.Driver.run_each_once Baselines.Registry.central ~n:20 in
  check Alcotest.int "holder" Baselines.Central.holder r.bottleneck_proc;
  check Alcotest.int "load 2(n-1)" (2 * 19) r.bottleneck_load;
  (* Message-optimal: 2 messages per remote op, none for the holder. *)
  check Alcotest.int "messages" (2 * 19) r.total_messages

let test_central_local_op_free () =
  let c = Baselines.Central.create ~n:5 () in
  check Alcotest.int "value" 0 (Baselines.Central.inc c ~origin:1);
  check Alcotest.int "no messages"
    0
    (Sim.Metrics.total_messages (Baselines.Central.metrics c))

(* ------------------------------------------------------------------ *)
(* Static tree *)

let test_static_tree_root_theta_n () =
  let n = 81 in
  let r = Counter.Driver.run_each_once Baselines.Registry.static_tree ~n in
  (* The root's initial worker is processor 1 and it never retires: it
     receives every request and sends every reply. *)
  check Alcotest.int "root worker" 1 r.bottleneck_proc;
  Alcotest.(check bool)
    (Printf.sprintf "load %d >= 2n" r.bottleneck_load)
    true
    (r.bottleneck_load >= 2 * n)

(* ------------------------------------------------------------------ *)
(* Bitonic / counting network *)

let test_bitonic_depth_formula () =
  List.iter
    (fun w ->
      let lg =
        int_of_float (Float.round (log (float_of_int w) /. log 2.))
      in
      let net = Baselines.Bitonic.build ~width:w in
      check Alcotest.int
        (Printf.sprintf "depth w=%d" w)
        (lg * (lg + 1) / 2)
        (Baselines.Bitonic.depth net);
      check Alcotest.int
        (Printf.sprintf "balancers w=%d" w)
        (w / 2 * (lg * (lg + 1) / 2))
        (Array.length net.Baselines.Bitonic.balancers))
    [ 2; 4; 8; 16; 32 ]

let test_bitonic_rejects_non_power () =
  match Baselines.Bitonic.build ~width:6 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected power-of-two check"

let test_bitonic_single_wire_cycles_outputs () =
  let net = Baselines.Bitonic.build ~width:4 in
  let st = Baselines.Bitonic.fresh_state net in
  let outs = List.init 8 (fun _ -> Baselines.Bitonic.push net st ~wire:0) in
  Alcotest.(check (list int)) "round robin outputs" [ 0; 1; 2; 3; 0; 1; 2; 3 ] outs

let prop_bitonic_step_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"step property at every quiescent prefix (random wires)"
       ~count:60
       QCheck2.Gen.(
         pair (int_range 0 3)
           (list_size (int_range 1 200) (int_range 0 1000)))
       (fun (wi, wires) ->
         let width = List.nth [ 2; 4; 8; 16 ] wi in
         let net = Baselines.Bitonic.build ~width in
         let st = Baselines.Bitonic.fresh_state net in
         List.for_all
           (fun wire ->
             ignore (Baselines.Bitonic.push net st ~wire:(wire mod width));
             Baselines.Bitonic.step_property
               (Baselines.Bitonic.output_counts st))
           wires))

let prop_step_property_predicate =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"step_property predicate matches definition"
       ~count:300
       QCheck2.Gen.(array_size (int_range 1 8) (int_range 0 5))
       (fun counts ->
         let expected =
           let ok = ref true in
           Array.iteri
             (fun i yi ->
               Array.iteri
                 (fun j yj -> if i < j && (yi - yj < 0 || yi - yj > 1) then ok := false)
                 counts)
             counts;
           !ok
         in
         Baselines.Bitonic.step_property counts = expected))

let test_counting_network_sequential_linearizable () =
  let c = Baselines.Counting_network.create_width ~n:20 ~width:4 () in
  for i = 0 to 39 do
    check Alcotest.int "value" i
      (Baselines.Counting_network.inc c ~origin:((i mod 20) + 1))
  done;
  Alcotest.(check bool) "step property held" true
    (Baselines.Counting_network.step_property_held c)

let test_counting_network_cost_per_op () =
  (* Each op costs depth + 2 messages: entry hop, one hop per balancer
     after the first, exit hop, value reply. *)
  let c = Baselines.Counting_network.create_width ~n:20 ~width:8 () in
  ignore (Baselines.Counting_network.inc c ~origin:5);
  let depth = Baselines.Counting_network.network_depth c in
  match Baselines.Counting_network.traces c with
  | [ t ] -> check Alcotest.int "messages" (depth + 2) (Sim.Trace.message_count t)
  | _ -> Alcotest.fail "expected one trace"

let test_counting_network_batch () =
  let c = Baselines.Counting_network.create_width ~n:32 ~width:8 () in
  let results =
    Baselines.Counting_network.run_batch c
      ~origins:(List.init 32 (fun i -> i + 1))
  in
  check Alcotest.int "all done" 32 (List.length results);
  let values = List.sort compare (List.map snd results) in
  Alcotest.(check (list int)) "contiguous distinct block"
    (List.init 32 Fun.id) values;
  Alcotest.(check bool) "step property at quiescence" true
    (Baselines.Counting_network.step_property_held c);
  (* Sequential ops keep working afterwards. *)
  check Alcotest.int "next value" 32
    (Baselines.Counting_network.inc c ~origin:1)

let test_counting_network_batch_spreads_load () =
  (* No serialisation point: with width 8, the busiest host takes ~1/8 of
     the tokens' first-layer traffic rather than all of it. *)
  let c = Baselines.Counting_network.create_width ~n:64 ~width:8 () in
  ignore
    (Baselines.Counting_network.run_batch c
       ~origins:(List.init 64 (fun i -> i + 1)));
  let m = Baselines.Counting_network.metrics c in
  let _, bottleneck = Sim.Metrics.bottleneck m in
  Alcotest.(check bool)
    (Printf.sprintf "bottleneck %d << 2*64" bottleneck)
    true (bottleneck < 64)

let test_periodic_depth_formula () =
  List.iter
    (fun w ->
      let lg = int_of_float (Float.round (log (float_of_int w) /. log 2.)) in
      let net = Baselines.Periodic.build ~width:w in
      check Alcotest.int
        (Printf.sprintf "balancers w=%d" w)
        (w / 2 * Baselines.Periodic.depth ~width:w)
        (Array.length net.Baselines.Bitonic.balancers);
      check Alcotest.int
        (Printf.sprintf "depth w=%d" w)
        (lg * lg)
        (Baselines.Bitonic.depth net))
    [ 2; 4; 8; 16; 32 ]

let prop_periodic_step_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"periodic network: step property at every quiescent prefix"
       ~count:60
       QCheck2.Gen.(
         pair (int_range 0 3) (list_size (int_range 1 200) (int_range 0 1000)))
       (fun (wi, wires) ->
         let width = List.nth [ 2; 4; 8; 16 ] wi in
         let net = Baselines.Periodic.build ~width in
         let st = Baselines.Bitonic.fresh_state net in
         List.for_all
           (fun wire ->
             ignore (Baselines.Bitonic.push net st ~wire:(wire mod width));
             Baselines.Bitonic.step_property
               (Baselines.Bitonic.output_counts st))
           wires))

let test_periodic_counter_sequential () =
  let c = Baselines.Periodic_counter.create ~n:20 () in
  for i = 0 to 39 do
    check Alcotest.int "value" i
      (Baselines.Periodic_counter.inc c ~origin:((i mod 20) + 1))
  done

let test_counting_network_default_width () =
  let c = Baselines.Counting_network.create ~n:81 () in
  check Alcotest.int "width ~ sqrt n" 8 (Baselines.Counting_network.width c)

(* ------------------------------------------------------------------ *)
(* Combining tree *)

let test_combining_sequential_correct () =
  let c = Baselines.Combining_tree.create ~n:16 () in
  for i = 0 to 31 do
    check Alcotest.int "value" i
      (Baselines.Combining_tree.inc c ~origin:((i mod 16) + 1))
  done

let test_combining_batch_values_contiguous () =
  let c = Baselines.Combining_tree.create ~n:16 () in
  let results =
    Baselines.Combining_tree.run_batch c ~origins:(List.init 16 (fun i -> i + 1))
  in
  check Alcotest.int "all done" 16 (List.length results);
  let values = List.sort compare (List.map snd results) in
  Alcotest.(check (list int)) "contiguous block" (List.init 16 Fun.id) values

let test_combining_batch_combines () =
  let c = Baselines.Combining_tree.create ~n:16 () in
  ignore
    (Baselines.Combining_tree.run_batch c
       ~origins:(List.init 16 (fun i -> i + 1)));
  (* A full concurrent batch over a complete binary tree combines at
     every inner node: 15 inner nodes, the root cannot combine "up". *)
  Alcotest.(check bool)
    (Printf.sprintf "combining happened (%d)"
       (Baselines.Combining_tree.combined_requests c))
    true
    (Baselines.Combining_tree.combined_requests c >= 8);
  Alcotest.(check bool) "rate > 0.5" true
    (Baselines.Combining_tree.combining_rate c > 0.5)

let test_combining_batch_root_relief () =
  (* The root host sees far fewer messages under a combined batch than
     under 16 sequential ops. *)
  let batched = Baselines.Combining_tree.create ~n:16 () in
  ignore
    (Baselines.Combining_tree.run_batch batched
       ~origins:(List.init 16 (fun i -> i + 1)));
  let sequential = Baselines.Combining_tree.create ~n:16 () in
  for i = 1 to 16 do
    ignore (Baselines.Combining_tree.inc sequential ~origin:i)
  done;
  let root_load c = Sim.Metrics.load (Baselines.Combining_tree.metrics c) 1 in
  Alcotest.(check bool)
    (Printf.sprintf "batched root %d < sequential root %d" (root_load batched)
       (root_load sequential))
    true
    (root_load batched < root_load sequential)

let test_combining_batch_rejects_duplicates () =
  let c = Baselines.Combining_tree.create ~n:8 () in
  match Baselines.Combining_tree.run_batch c ~origins:[ 1; 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate check"

let test_combining_partial_batches () =
  let c = Baselines.Combining_tree.create ~n:16 () in
  let r1 = Baselines.Combining_tree.run_batch c ~origins:[ 1; 2; 3 ] in
  let r2 = Baselines.Combining_tree.run_batch c ~origins:[ 9; 16 ] in
  let values = List.sort compare (List.map snd (r1 @ r2)) in
  Alcotest.(check (list int)) "two batches contiguous" [ 0; 1; 2; 3; 4 ] values

(* ------------------------------------------------------------------ *)
(* Diffracting tree *)

let test_diffracting_sequential_correct () =
  let c = Baselines.Diffracting_tree.create_width ~n:16 ~width:4 () in
  for i = 0 to 31 do
    check Alcotest.int "value" i
      (Baselines.Diffracting_tree.inc c ~origin:((i mod 16) + 1))
  done;
  Alcotest.(check bool) "step property" true
    (Baselines.Diffracting_tree.step_property_held c)

let test_diffracting_sequential_never_diffracts () =
  let c = Baselines.Diffracting_tree.create_width ~n:16 ~width:4 () in
  for i = 1 to 16 do
    ignore (Baselines.Diffracting_tree.inc c ~origin:i)
  done;
  check Alcotest.int "no diffraction" 0
    (Baselines.Diffracting_tree.diffractions c);
  Alcotest.(check bool) "all toggle" true
    (Baselines.Diffracting_tree.toggle_hits c > 0)

let test_diffracting_batch_diffracts () =
  let c = Baselines.Diffracting_tree.create_width ~n:16 ~width:4 () in
  let results =
    Baselines.Diffracting_tree.run_batch c
      ~origins:(List.init 16 (fun i -> i + 1))
  in
  check Alcotest.int "all done" 16 (List.length results);
  let values = List.sort compare (List.map snd results) in
  Alcotest.(check (list int)) "contiguous" (List.init 16 Fun.id) values;
  Alcotest.(check bool)
    (Printf.sprintf "diffractions %d > 0" (Baselines.Diffracting_tree.diffractions c))
    true
    (Baselines.Diffracting_tree.diffractions c > 0)

let test_diffracting_batch_step_property () =
  let c = Baselines.Diffracting_tree.create_width ~n:32 ~width:8 () in
  ignore
    (Baselines.Diffracting_tree.run_batch c
       ~origins:(List.init 32 (fun i -> i + 1)));
  Alcotest.(check bool) "step property after batch" true
    (Baselines.Bitonic.step_property (Baselines.Diffracting_tree.output_counts c))

(* ------------------------------------------------------------------ *)
(* Quorum counters *)

let test_quorum_counter_message_geometry () =
  (* Grid quorum counter with origin-local slots: processor p's first
     access uses the quorum of grid element p (Maekawa's "my quorum"),
     which always contains p itself, so an op costs 4 * (|Q| - 1)
     messages: read+reply+write+ack for each of the 2r-2 remote
     members. *)
  let module QC = Baselines.Quorum_counter.Over_grid in
  let n = 16 in
  let c = QC.create ~n () in
  ignore (QC.inc c ~origin:16);
  check Alcotest.int "messages = 4 * (7-1)" 24
    (Sim.Metrics.total_messages (QC.metrics c));
  ignore (QC.inc c ~origin:6);
  check Alcotest.int "second op adds 24" 48
    (Sim.Metrics.total_messages (QC.metrics c))

let test_quorum_counter_slots_are_origin_local () =
  (* The quorum a processor uses depends only on its own history: other
     processors' operations must not change it (prefix stability, see
     Quorum_counter). Clone the counter, run unrelated ops on one copy,
     and check a probe operation costs the same messages on both. *)
  let module QC = Baselines.Quorum_counter.Over_grid in
  let a = QC.create ~n:16 () in
  let b = QC.clone a in
  ignore (QC.inc b ~origin:2);
  ignore (QC.inc b ~origin:3);
  let msgs_before c = Sim.Metrics.total_messages (QC.metrics c) in
  let before_a = msgs_before a and before_b = msgs_before b in
  ignore (QC.inc a ~origin:7);
  ignore (QC.inc b ~origin:7);
  check Alcotest.int "same probe cost"
    (msgs_before a - before_a)
    (msgs_before b - before_b)

let test_quorum_counter_majority_correct_under_rotation () =
  let module QC = Baselines.Quorum_counter.Over_majority in
  let c = QC.create ~n:9 () in
  for i = 0 to 26 do
    check Alcotest.int "value" i (QC.inc c ~origin:((i mod 9) + 1))
  done

let test_quorum_counter_singleton_universe () =
  let module QC = Baselines.Quorum_counter.Over_majority in
  let c = QC.create ~n:1 () in
  check Alcotest.int "local" 0 (QC.inc c ~origin:1);
  check Alcotest.int "local again" 1 (QC.inc c ~origin:1);
  check Alcotest.int "no messages" 0
    (Sim.Metrics.total_messages (QC.metrics c))

(* Words allocated per message sent while [origins] increment in turn on
   a fresh counter. Exact: [Gc.minor_words] reads the allocation
   pointer. *)
let words_per_message (module C : Counter.Counter_intf.S) ?faults ~n origins =
  let c = C.create ?faults ~n () in
  let before = Gc.minor_words () in
  List.iter (fun origin -> ignore (C.inc_result c ~origin)) origins;
  let words = Gc.minor_words () -. before in
  words /. float_of_int (Sim.Metrics.total_messages (C.metrics c))

let test_quorum_counter_allocation () =
  (* A reply clears its member's owed flag in place, and under a fault
     plan the suspicion walk takes rejected quorums from a cache, so the
     client allocates a few words per message on top of the engine's.
     A client that filters a pending list on every reply, or builds and
     sorts a fresh quorum for every slot the walk rejects, allocates
     over 200 words per message in both runs. Holds in the dev and the
     release profile. *)
  let qm =
    (module Baselines.Quorum_counter.Over_majority : Counter.Counter_intf.S)
  in
  let fault_free = words_per_message qm ~n:512 (List.init 512 (fun i -> i + 1)) in
  Alcotest.(check bool)
    (Printf.sprintf "n = 512 each-once: %.1f words/msg < 60" fault_free)
    true (fault_free < 60.);
  let faults =
    match
      Sim.Fault.of_string
        (String.concat "/" (List.init 32 (fun i -> Printf.sprintf "crash:%d@0" (i + 1))))
    with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  let crashed =
    words_per_message qm ~faults ~n:65 (List.init 130 (fun i -> (i mod 65) + 1))
  in
  Alcotest.(check bool)
    (Printf.sprintf "n = 65, 32 crashed, 130 ops: %.1f words/msg < 100" crashed)
    true (crashed < 100.)

(* ------------------------------------------------------------------ *)
(* Cross-counter comparison: the headline ordering at n = 81. *)

let test_bottleneck_ordering_at_81 () =
  let bottleneck c =
    (Counter.Driver.run_each_once c ~n:81).Counter.Driver.bottleneck_load
  in
  let retire = bottleneck Baselines.Registry.retire_tree in
  let central = bottleneck Baselines.Registry.central in
  let static = bottleneck Baselines.Registry.static_tree in
  let grid = bottleneck Baselines.Registry.quorum_grid in
  Alcotest.(check bool)
    (Printf.sprintf "retire %d < grid %d" retire grid)
    true (retire < grid);
  Alcotest.(check bool)
    (Printf.sprintf "grid %d < central %d" grid central)
    true (grid < central);
  Alcotest.(check bool)
    (Printf.sprintf "retire %d << static %d" retire static)
    true (retire * 2 < static)

let () =
  Alcotest.run "baselines"
    [
      ( "central",
        [
          Alcotest.test_case "holder bottleneck" `Quick test_central_holder_is_bottleneck;
          Alcotest.test_case "local op free" `Quick test_central_local_op_free;
        ] );
      ( "static-tree",
        [ Alcotest.test_case "root Theta(n)" `Quick test_static_tree_root_theta_n ] );
      ( "bitonic",
        [
          Alcotest.test_case "depth formula" `Quick test_bitonic_depth_formula;
          Alcotest.test_case "rejects non-power" `Quick test_bitonic_rejects_non_power;
          Alcotest.test_case "single wire cycles" `Quick test_bitonic_single_wire_cycles_outputs;
          prop_bitonic_step_property;
          prop_step_property_predicate;
        ] );
      ( "counting-network",
        [
          Alcotest.test_case "sequentially linearizable" `Quick test_counting_network_sequential_linearizable;
          Alcotest.test_case "cost per op" `Quick test_counting_network_cost_per_op;
          Alcotest.test_case "concurrent batch" `Quick test_counting_network_batch;
          Alcotest.test_case "batch spreads load" `Quick test_counting_network_batch_spreads_load;
          Alcotest.test_case "default width" `Quick test_counting_network_default_width;
          Alcotest.test_case "periodic depth formula" `Quick test_periodic_depth_formula;
          prop_periodic_step_property;
          Alcotest.test_case "periodic counter sequential" `Quick test_periodic_counter_sequential;
        ] );
      ( "combining",
        [
          Alcotest.test_case "sequential correct" `Quick test_combining_sequential_correct;
          Alcotest.test_case "batch contiguous" `Quick test_combining_batch_values_contiguous;
          Alcotest.test_case "batch combines" `Quick test_combining_batch_combines;
          Alcotest.test_case "batch relieves root" `Quick test_combining_batch_root_relief;
          Alcotest.test_case "duplicate check" `Quick test_combining_batch_rejects_duplicates;
          Alcotest.test_case "partial batches" `Quick test_combining_partial_batches;
        ] );
      ( "diffracting",
        [
          Alcotest.test_case "sequential correct" `Quick test_diffracting_sequential_correct;
          Alcotest.test_case "sequential never diffracts" `Quick test_diffracting_sequential_never_diffracts;
          Alcotest.test_case "batch diffracts" `Quick test_diffracting_batch_diffracts;
          Alcotest.test_case "batch step property" `Quick test_diffracting_batch_step_property;
        ] );
      ( "quorum-counters",
        [
          Alcotest.test_case "message geometry" `Quick test_quorum_counter_message_geometry;
          Alcotest.test_case "origin-local slots" `Quick test_quorum_counter_slots_are_origin_local;
          Alcotest.test_case "majority rotation" `Quick test_quorum_counter_majority_correct_under_rotation;
          Alcotest.test_case "singleton universe" `Quick test_quorum_counter_singleton_universe;
          Alcotest.test_case "words per message" `Quick test_quorum_counter_allocation;
        ] );
      ( "comparison",
        [ Alcotest.test_case "ordering at n=81" `Quick test_bottleneck_ordering_at_81 ] );
    ]
