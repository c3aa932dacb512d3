(* Sim.Par — the multi-domain conservative engine.

   The load-bearing property is the determinism matrix: the same relay
   workload run under domains {1, 2, 4, 8} must produce byte-identical
   load vectors and checksums, with and without a crash/recover/partition
   fault plan. For order-independent workloads (the relay's forwarding
   chains are pure functions of (self, hops)) the Par load vector must
   also equal the sequential Sim.Network engine's under the same Constant
   delay model — the cross-engine anchor that pins Par's accounting to
   the engine the goldens were recorded on. *)

let check = Alcotest.check

(* The bench relay: each delivery of [hops > 0] forwards [hops - 1] to a
   pseudo-random next processor. Pure function of (self, hops), so the
   message multiset — and therefore every per-processor (sent, recv)
   count — is independent of delivery order. *)
let next_hop ~n ~self ~hops = 1 + (((self * 2654435761) + hops) mod n)

let injections ~n = min n 64

let relay_par ?faults ~delay ~domains ~n ~hops () =
  let t = Sim.Par.create ?faults ~seed:99 ~delay ~domains ~n () in
  Sim.Par.set_handler t (fun ctx ~src:_ hops ->
      if hops > 0 then
        let self = Sim.Par.self ctx in
        Sim.Par.send ctx ~dst:(next_hop ~n ~self ~hops) (hops - 1));
  for i = 1 to injections ~n do
    Sim.Par.inject t ~src:i ~dst:(1 + (i * 7 mod n)) hops
  done;
  ignore (Sim.Par.run_to_quiescence t);
  Sim.Par.metrics t

let relay_net ?faults ~delay ~n ~hops () =
  let net = Sim.Network.create ?faults ~seed:99 ~delay ~n () in
  Sim.Network.set_handler net (fun ~self ~src:_ hops ->
      if hops > 0 then
        Sim.Network.send net ~src:self ~dst:(next_hop ~n ~self ~hops)
          (hops - 1));
  for i = 1 to injections ~n do
    Sim.Network.send net ~src:i ~dst:(1 + (i * 7 mod n)) hops
  done;
  ignore (Sim.Network.run_to_quiescence net);
  Sim.Network.metrics net

(* n = 257 makes every multi-domain split uneven, exercising the
   block-partition arithmetic. *)
let matrix_n = 257

let fault_plan =
  match Sim.Fault.of_string "crash:3@4/recover:3@40/part:10-20@2,6" with
  | Ok f -> f
  | Error e -> failwith e

let test_matrix ?faults ~delay name () =
  let base = relay_par ?faults ~delay ~domains:1 ~n:matrix_n ~hops:40 () in
  List.iter
    (fun domains ->
      let m = relay_par ?faults ~delay ~domains ~n:matrix_n ~hops:40 () in
      check Alcotest.int
        (Printf.sprintf "%s: checksum, domains=%d" name domains)
        (Sim.Metrics.checksum base) (Sim.Metrics.checksum m);
      Alcotest.(check (array int))
        (Printf.sprintf "%s: load vector, domains=%d" name domains)
        (Sim.Metrics.load_array base)
        (Sim.Metrics.load_array m);
      check Alcotest.int
        (Printf.sprintf "%s: dropped, domains=%d" name domains)
        (Sim.Metrics.dropped base) (Sim.Metrics.dropped m);
      check Alcotest.int
        (Printf.sprintf "%s: crashes, domains=%d" name domains)
        (Sim.Metrics.crashes base) (Sim.Metrics.crashes m))
    [ 2; 4; 8 ]

(* Cross-engine: Constant delay gives both engines identical send/arrival
   times, and the relay is order-independent, so the whole load vector —
   including the fault counters under the crash/recover/partition plan —
   must agree with the sequential engine's. *)
let test_par_equals_network ?faults name () =
  let delay = Sim.Delay.Constant 1.0 in
  let seq = relay_net ?faults ~delay ~n:matrix_n ~hops:40 () in
  List.iter
    (fun domains ->
      let par = relay_par ?faults ~delay ~domains ~n:matrix_n ~hops:40 () in
      check Alcotest.int
        (Printf.sprintf "%s: checksum vs Network, domains=%d" name domains)
        (Sim.Metrics.checksum seq) (Sim.Metrics.checksum par);
      Alcotest.(check (array int))
        (Printf.sprintf "%s: load vector vs Network, domains=%d" name domains)
        (Sim.Metrics.load_array seq)
        (Sim.Metrics.load_array par))
    [ 1; 4 ]

let test_fault_plan_bites () =
  let m =
    relay_par ~faults:fault_plan
      ~delay:(Sim.Delay.Constant 1.0)
      ~domains:2 ~n:matrix_n ~hops:40 ()
  in
  check Alcotest.bool "plan dropped something" true (Sim.Metrics.dropped m > 0);
  check Alcotest.int "one crash" 1 (Sim.Metrics.crashes m);
  check Alcotest.int "one recovery" 1 (Sim.Metrics.recoveries m)

let test_quiescence () =
  let t = Sim.Par.create ~domains:4 ~n:32 () in
  Sim.Par.set_handler t (fun _ ~src:_ () -> ());
  check Alcotest.int "empty run takes no steps" 0
    (Sim.Par.run_to_quiescence t);
  Sim.Par.inject t ~src:1 ~dst:2 ();
  check Alcotest.int "one event" 1 (Sim.Par.run_to_quiescence t);
  check Alcotest.int "nothing pending" 0 (Sim.Par.pending t);
  check Alcotest.int "delivery counted" 1 (Sim.Par.deliveries t)

let test_storm_guard () =
  (* A self-perpetuating relay never quiesces; the guard must fire and
     the pool must shut down cleanly (the run returns by exception, and a
     fresh run on another engine still works afterwards). *)
  let t = Sim.Par.create ~domains:2 ~n:8 () in
  Sim.Par.set_handler t (fun ctx ~src:_ () ->
      let self = Sim.Par.self ctx in
      Sim.Par.send ctx ~dst:(1 + (self mod 8)) ());
  Sim.Par.inject t ~src:1 ~dst:2 ();
  (match Sim.Par.run_to_quiescence ~max_steps:1000 t with
  | _ -> Alcotest.fail "storm guard did not fire"
  | exception Sim.Par.Storm { pending; _ } ->
      check Alcotest.bool "storm reports pending work" true (pending > 0));
  let t2 = Sim.Par.create ~domains:2 ~n:8 () in
  Sim.Par.set_handler t2 (fun _ ~src:_ () -> ());
  Sim.Par.inject t2 ~src:1 ~dst:2 ();
  check Alcotest.int "engine still usable after a storm" 1
    (Sim.Par.run_to_quiescence t2)

let test_handler_exception_propagates () =
  let t = Sim.Par.create ~domains:4 ~n:64 () in
  Sim.Par.set_handler t (fun ctx ~src:_ () ->
      if Sim.Par.self ctx = 60 then failwith "boom");
  for i = 1 to 64 do
    Sim.Par.inject t ~src:i ~dst:i ()
  done;
  match Sim.Par.run_to_quiescence t with
  | _ -> Alcotest.fail "handler exception was swallowed"
  | exception Failure msg -> check Alcotest.string "the boom" "boom" msg

let rejects name f =
  match f () with
  | (_ : int Sim.Par.t) -> Alcotest.failf "%s: not rejected" name
  | exception Invalid_argument _ -> ()

let test_rejections () =
  rejects "zero-lookahead delay" (fun () ->
      Sim.Par.create ~delay:(Sim.Delay.Exponential 1.0) ~n:8 ());
  rejects "zero-based uniform" (fun () ->
      Sim.Par.create ~delay:(Sim.Delay.Uniform (0., 1.)) ~n:8 ());
  let plan s =
    match Sim.Fault.of_string s with Ok f -> f | Error e -> failwith e
  in
  rejects "probabilistic drop" (fun () ->
      Sim.Par.create ~faults:(plan "drop:0.1") ~n:8 ());
  rejects "per-link drop" (fun () ->
      Sim.Par.create ~faults:(plan "drop:1,2:0.5") ~n:8 ());
  rejects "duplication" (fun () ->
      Sim.Par.create ~faults:(plan "dup:0.1") ~n:8 ());
  rejects "count-triggered crash" (fun () ->
      Sim.Par.create ~faults:(plan "crash:3@#5") ~n:8 ());
  rejects "victim above n" (fun () ->
      Sim.Par.create ~faults:(plan "crash:9@1.0") ~n:8 ());
  rejects "n too large for the canonical key" (fun () ->
      Sim.Par.create ~n:(1 lsl 22) ())

let () =
  Alcotest.run "par"
    [
      ( "determinism",
        [
          Alcotest.test_case "domain matrix, constant delay" `Quick
            (test_matrix ~delay:(Sim.Delay.Constant 1.0) "constant");
          Alcotest.test_case "domain matrix, uniform delay" `Quick
            (test_matrix ~delay:(Sim.Delay.Uniform (0.5, 2.0)) "uniform");
          Alcotest.test_case "domain matrix, jitter delay" `Quick
            (test_matrix ~delay:(Sim.Delay.Adversarial_jitter 0.5) "jitter");
          Alcotest.test_case "domain matrix under fault plan" `Quick
            (test_matrix ~faults:fault_plan
               ~delay:(Sim.Delay.Constant 1.0)
               "faulted");
          Alcotest.test_case "par equals sequential engine" `Quick
            (test_par_equals_network "fault-free");
          Alcotest.test_case "par equals sequential engine under faults"
            `Quick
            (test_par_equals_network ~faults:fault_plan "faulted");
          Alcotest.test_case "fault plan actually bites" `Quick
            test_fault_plan_bites;
        ] );
      ( "engine",
        [
          Alcotest.test_case "quiescence bookkeeping" `Quick test_quiescence;
          Alcotest.test_case "storm guard fires and pool shuts down" `Quick
            test_storm_guard;
          Alcotest.test_case "handler exception propagates" `Quick
            test_handler_exception_propagates;
          Alcotest.test_case "deterministic-subset rejections" `Quick
            test_rejections;
        ] );
    ]
