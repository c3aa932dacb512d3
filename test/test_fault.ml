(* Tests for the deterministic fault-injection layer (Sim.Fault) and the
   failure-aware counter behaviour built on it.

   Structure:
   - plan grammar: of_string / to_string round-trips, validation errors;
   - qcheck: string-level round-trip fixpoints for Delay and Fault — for
     any plan [t], [to_string (of_string (to_string t)) = to_string t];
   - network semantics: crash triggers (At / After), global and per-link
     drops, duplication, healing partitions, suppressed sends from
     crashed processors, trace annotations;
   - counters: quorum-majority completes every live-origin operation
     under f < ceil(n/2) pre-crashes; the retirement counter stalls with
     a typed outcome (never hangs) when its path is dead; fault runs are
     reproducible checksum-for-checksum. *)

let check = Alcotest.check

let plan s =
  match Sim.Fault.of_string s with
  | Ok f -> f
  | Error e -> Alcotest.failf "plan %S rejected: %s" s e

(* ------------------------------------------------------------------ *)
(* Grammar *)

let test_parse_round_trips () =
  List.iter
    (fun s ->
      check Alcotest.string
        (Printf.sprintf "canonical %S" s)
        s
        (Sim.Fault.to_string (plan s)))
    [
      "none";
      "crash:3@1.5";
      "crash:2@#10";
      "crash:3@1.5/recover:3@9";
      "crash:2@#10/recover:2@12.5/recover:2@40";
      "drop:0.25";
      "drop:1,2:0.5";
      "dup:0.1";
      "part:1-4@2,10";
      "crash:3@1.5/crash:7@#40/drop:0.01/drop:2,5:1/dup:0.05/part:1-4@2,10";
      "crash:3@1.5/crash:7@#40/recover:7@50/drop:0.01/dup:0.05/part:1-4@2,10";
      "sdrop:0.25";
      "sdup:0.1";
      "sslow:0.5:8";
      "sout:2,10";
      "crash:3@1.5/recover:3@9/sdrop:0.1/sdup:0.05/sslow:0.25:4/sout:0,6/sout:20,30";
    ]

let test_parse_structure () =
  let f = plan "crash:3@1.5/crash:2@#10/drop:0.25/dup:0.1/part:1-4@2,10" in
  check Alcotest.int "crash count" 2 (Sim.Fault.crash_count f);
  (match f.Sim.Fault.crashes with
  | [ c1; c2 ] ->
      check Alcotest.int "first crash proc" 3 c1.Sim.Fault.processor;
      check Alcotest.bool "first crash at time" true
        (c1.Sim.Fault.trigger = Sim.Fault.At 1.5);
      check Alcotest.bool "second crash after count" true
        (c2.Sim.Fault.trigger = Sim.Fault.After 10)
  | _ -> Alcotest.fail "expected two crash clauses");
  check (Alcotest.float 0.) "drop" 0.25 f.Sim.Fault.drop;
  check (Alcotest.float 0.) "dup" 0.1 f.Sim.Fault.duplicate;
  match f.Sim.Fault.partitions with
  | [ p ] ->
      check Alcotest.(pair int int) "range" (1, 4) (p.Sim.Fault.lo, p.Sim.Fault.hi)
  | _ -> Alcotest.fail "expected one partition"

let test_parse_rejects () =
  List.iter
    (fun s ->
      match Sim.Fault.of_string s with
      | Ok _ -> Alcotest.failf "plan %S should have been rejected" s
      | Error _ -> ())
    [
      "";
      "bogus";
      "crash:3";
      "crash:0@1";
      "crash:3@-2";
      "drop:1.5";
      "drop:-0.1";
      "drop:0,2:0.5";
      "dup:2";
      "part:4-1@2,10";
      "part:1-4@10,2";
      "nonsense:1";
      "recover:3";
      "recover:0@1";
      "crash:3@1/recover:3@-2";
      "crash:3@1/recover:3@#5";
      "sdrop:1.5";
      "sdrop:-0.1";
      "sdup:2";
      "sslow:0.5";
      "sslow:2:4";
      "sslow:0.5:-1";
      "sout:10";
      "sout:10,2";
      "sout:-1,5";
    ]

let test_recover_requires_crash () =
  (* Reviving a processor the plan never kills is a typed error, not a
     silent no-op clause. *)
  match Sim.Fault.of_string "crash:2@1/recover:5@3" with
  | Ok _ -> Alcotest.fail "recover for a never-crashed processor accepted"
  | Error e ->
      check Alcotest.bool
        (Printf.sprintf "error names the victim: %s" e)
        true
        (String.length e > 0
        &&
        let needle = "never crashes" in
        let nl = String.length needle and el = String.length e in
        let rec go i = i + nl <= el && (String.sub e i nl = needle || go (i + 1)) in
        go 0)

let test_is_none () =
  check Alcotest.bool "none is none" true (Sim.Fault.is_none Sim.Fault.none);
  check Alcotest.bool "parsed none" true (Sim.Fault.is_none (plan "none"));
  check Alcotest.bool "drop active" false (Sim.Fault.is_none (plan "drop:0.5"));
  (* A zero-probability drop parses back to the structural [none]. *)
  check Alcotest.bool "drop:0 collapses" true (Sim.Fault.is_none (plan "drop:0"))

let test_drop_on () =
  let f = plan "drop:0.1/drop:1,2:0.9/drop:2,1:0" in
  check (Alcotest.float 0.) "override" 0.9 (Sim.Fault.drop_on f ~src:1 ~dst:2);
  check (Alcotest.float 0.) "zero override" 0.
    (Sim.Fault.drop_on f ~src:2 ~dst:1);
  check (Alcotest.float 0.) "global default" 0.1
    (Sim.Fault.drop_on f ~src:3 ~dst:4)

let test_partitioned () =
  let f = plan "part:1-2@5,10" in
  let cut ~src ~dst ~at = Sim.Fault.partitioned f ~src ~dst ~at in
  check Alcotest.bool "before window" false (cut ~src:1 ~dst:3 ~at:4.9);
  check Alcotest.bool "cut at open" true (cut ~src:1 ~dst:3 ~at:5.);
  check Alcotest.bool "cut both directions" true (cut ~src:3 ~dst:2 ~at:7.);
  check Alcotest.bool "same side inside" false (cut ~src:1 ~dst:2 ~at:7.);
  check Alcotest.bool "same side outside" false (cut ~src:3 ~dst:4 ~at:7.);
  check Alcotest.bool "healed (half-open)" false (cut ~src:1 ~dst:3 ~at:10.)

let test_store_plan_statics () =
  let f = plan "sout:2,10/sout:20,30" in
  check Alcotest.bool "store_active" true (Sim.Fault.store_active f);
  check Alcotest.bool "before window" false (Sim.Fault.store_down f ~at:1.9);
  check Alcotest.bool "at open" true (Sim.Fault.store_down f ~at:2.);
  check Alcotest.bool "healed (half-open)" false (Sim.Fault.store_down f ~at:10.);
  check Alcotest.bool "second window" true (Sim.Fault.store_down f ~at:25.);
  check Alcotest.bool "none inactive" false
    (Sim.Fault.store_active Sim.Fault.none);
  (* Zero-probability store clauses parse back to the structural none,
     like drop:0 — plans without effective store faults stay draw-free. *)
  check Alcotest.bool "sdrop:0 collapses" true (Sim.Fault.is_none (plan "sdrop:0"));
  check Alcotest.bool "sslow:0:9 collapses" true
    (Sim.Fault.is_none (plan "sslow:0:9"));
  check Alcotest.bool "sdup active" false (Sim.Fault.is_none (plan "sdup:0.5"))

(* ------------------------------------------------------------------ *)
(* QCheck round-trips: string-level fixpoints. Printing uses %g, so
   parse-then-print of any printed form must reproduce it exactly. *)

let gen_prob = QCheck.Gen.map (fun i -> float_of_int i /. 64.) (QCheck.Gen.int_bound 64)

let gen_pos_float =
  QCheck.Gen.map (fun i -> float_of_int (i + 1) /. 8.) (QCheck.Gen.int_bound 800)

let gen_delay =
  let open QCheck.Gen in
  oneof
    [
      map (fun d -> Sim.Delay.Constant d) gen_pos_float;
      map2
        (fun a b ->
          let lo = Float.min a b and hi = Float.max a b in
          Sim.Delay.Uniform (lo, hi +. 0.5))
        gen_pos_float gen_pos_float;
      map (fun m -> Sim.Delay.Exponential m) gen_pos_float;
      map (fun b -> Sim.Delay.Adversarial_jitter b) gen_pos_float;
    ]

let gen_trigger =
  let open QCheck.Gen in
  oneof
    [
      map (fun t -> Sim.Fault.At (float_of_int t /. 4.)) (int_bound 400);
      map (fun d -> Sim.Fault.After d) (int_bound 10_000);
    ]

let gen_fault =
  let open QCheck.Gen in
  let crash =
    map2
      (fun p trigger -> { Sim.Fault.processor = p + 1; trigger })
      (int_bound 30) gen_trigger
  in
  let link =
    map3 (fun s d p -> ((s + 1, d + 1), p)) (int_bound 15) (int_bound 15) gen_prob
  in
  let part =
    map3
      (fun lo len t0 ->
        {
          Sim.Fault.lo = lo + 1;
          hi = lo + 1 + len;
          from_time = float_of_int t0 /. 2.;
          heal_time = (float_of_int t0 /. 2.) +. 3.5;
        })
      (int_bound 10) (int_bound 5) (int_bound 100)
  in
  list_size (int_bound 3) crash >>= fun crashes ->
  (* Recoveries may only name processors the plan crashes (validate
     enforces it), so draw them from the crash clauses just generated. *)
  (match crashes with
  | [] -> return []
  | _ :: _ ->
      let pick =
        oneofl (List.map (fun (c : Sim.Fault.crash) -> c.processor) crashes)
      in
      let recover =
        map2
          (fun processor t ->
            ({ processor; time = float_of_int t /. 4. } : Sim.Fault.recover))
          pick (int_bound 400)
      in
      list_size (int_bound 2) recover)
  >>= fun recovers ->
  gen_prob >>= fun drop ->
  list_size (int_bound 2) link >>= fun drop_links ->
  gen_prob >>= fun duplicate ->
  list_size (int_bound 2) part >>= fun partitions ->
  gen_prob >>= fun store_drop ->
  gen_prob >>= fun store_dup ->
  gen_prob >>= fun slow_p ->
  gen_pos_float >>= fun slow_d ->
  let store_slow = if Float.equal slow_p 0. then (0., 0.) else (slow_p, slow_d) in
  let outage =
    map
      (fun t0 -> (float_of_int t0 /. 2., (float_of_int t0 /. 2.) +. 4.5))
      (int_bound 100)
  in
  list_size (int_bound 2) outage >>= fun store_outages ->
  return
    {
      Sim.Fault.crashes;
      recovers;
      drop;
      drop_links;
      duplicate;
      partitions;
      store_drop;
      store_dup;
      store_slow;
      store_outages;
      byz = [];
      byz_rules = [];
      byz_equiv = [];
    }

let qcheck_delay_round_trip =
  QCheck.Test.make ~name:"Delay.of_string round-trips to_string" ~count:500
    (QCheck.make ~print:Sim.Delay.to_string gen_delay)
    (fun d ->
      let s = Sim.Delay.to_string d in
      match Sim.Delay.of_string s with
      | Error e -> QCheck.Test.fail_reportf "of_string %S failed: %s" s e
      | Ok d' -> String.equal s (Sim.Delay.to_string d'))

let qcheck_fault_round_trip =
  QCheck.Test.make ~name:"Fault.of_string round-trips to_string" ~count:500
    (QCheck.make ~print:Sim.Fault.to_string gen_fault)
    (fun f ->
      let s = Sim.Fault.to_string f in
      match Sim.Fault.of_string s with
      | Error e -> QCheck.Test.fail_reportf "of_string %S failed: %s" s e
      | Ok f' -> String.equal s (Sim.Fault.to_string f'))

(* ------------------------------------------------------------------ *)
(* Network-level injection semantics. All nets use the default
   Constant 1.0 delay, so virtual time equals hop count. *)

let echo_net ?faults n =
  let net = Sim.Network.create ?faults ~n () in
  Sim.Network.set_handler net (fun ~self ~src (_ : int) ->
      Sim.Network.send net ~src:self ~dst:src 0);
  net

let m net = Sim.Network.metrics net

let test_crash_at_time () =
  (* 1 and 2 exchange one round trip; 2 crashes at t = 1.5, i.e. after
     receiving the first ping (t = 1) but before the probe sent at t = 2
     arrives (t = 3). *)
  let net = Sim.Network.create ~faults:(plan "crash:2@1.5") ~n:2 () in
  let replies = ref 0 in
  Sim.Network.set_handler net (fun ~self ~src (_ : int) ->
      if self = 2 then Sim.Network.send net ~src:2 ~dst:1 0
      else begin
        incr replies;
        if !replies = 1 then Sim.Network.send net ~src:1 ~dst:2 0
      end;
      ignore src);
  Sim.Network.send net ~src:1 ~dst:2 0;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.bool "2 crashed" true (Sim.Network.crashed net 2);
  check Alcotest.bool "1 alive" false (Sim.Network.crashed net 1);
  check Alcotest.int "one reply got through" 1 !replies;
  check Alcotest.int "deliveries" 2 (Sim.Network.deliveries net);
  check Alcotest.int "probe dropped" 1 (Sim.Metrics.dropped (m net));
  check Alcotest.int "one crash recorded" 1 (Sim.Metrics.crashes (m net))

let test_crash_after_deliveries () =
  (* Endless echo between 1 and 2, cut short when 1 crash-stops once the
     delivery total reaches 2. Delivery 3 still reaches 2 (the trigger
     names processor 1), whose echo then dies on 1's corpse. *)
  let net = echo_net ~faults:(plan "crash:1@#2") 2 in
  Sim.Network.send net ~src:1 ~dst:2 0;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.bool "1 crashed" true (Sim.Network.crashed net 1);
  check Alcotest.int "deliveries" 3 (Sim.Network.deliveries net);
  check Alcotest.int "final echo dropped" 1 (Sim.Metrics.dropped (m net));
  check Alcotest.int "one crash" 1 (Sim.Metrics.crashes (m net))

let test_crashed_sender_suppressed () =
  (* A crash at t = 0 applies at creation: the processor is dead before
     its first send, which is suppressed without a send charge. *)
  let net = Sim.Network.create ~faults:(plan "crash:1@0") ~n:3 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : int) -> ());
  check Alcotest.bool "dead on arrival" true (Sim.Network.crashed net 1);
  Sim.Network.send net ~src:1 ~dst:2 0;
  Sim.Network.send net ~src:2 ~dst:3 0;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "no send charged to 1" 0 (Sim.Metrics.sent (m net) 1);
  check Alcotest.int "2 never heard from 1" 0 (Sim.Metrics.received (m net) 2);
  check Alcotest.bool "2 -> 3 unaffected" true
    (Sim.Metrics.received (m net) 3 >= 1);
  check Alcotest.int "suppressed send counted" 1
    (Sim.Metrics.dropped (m net) - 0)

let test_manual_crash_api () =
  (* Network.crash works on a net created without any plan. *)
  let net = Sim.Network.create ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : int) -> ());
  check Alcotest.bool "initially alive" false (Sim.Network.crashed net 2);
  Sim.Network.crash net 2;
  Sim.Network.crash net 2 (* idempotent *);
  check Alcotest.bool "now crashed" true (Sim.Network.crashed net 2);
  check Alcotest.int "counted once" 1 (Sim.Metrics.crashes (m net));
  Sim.Network.send net ~src:1 ~dst:2 0;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "message to corpse lost" 1 (Sim.Metrics.dropped (m net));
  check Alcotest.int "no delivery" 0 (Sim.Network.deliveries net)

let test_drop_all () =
  let net = Sim.Network.create ~faults:(plan "drop:1") ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : int) -> ());
  for _ = 1 to 5 do
    Sim.Network.send net ~src:1 ~dst:2 0
  done;
  check Alcotest.int "nothing pending" 0 (Sim.Network.pending net);
  check Alcotest.int "sends still charged" 5 (Sim.Metrics.sent (m net) 1);
  check Alcotest.int "nothing received" 0 (Sim.Metrics.received (m net) 2);
  check Alcotest.int "all dropped" 5 (Sim.Metrics.dropped (m net))

let test_duplicate_all () =
  let net = Sim.Network.create ~faults:(plan "dup:1") ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : int) -> ());
  for _ = 1 to 3 do
    Sim.Network.send net ~src:1 ~dst:2 0
  done;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "each message delivered twice" 6
    (Sim.Metrics.received (m net) 2);
  check Alcotest.int "three spurious copies" 3 (Sim.Metrics.duplicated (m net));
  check Alcotest.int "sends charged once" 3 (Sim.Metrics.sent (m net) 1)

let test_per_link_drop () =
  let net = Sim.Network.create ~faults:(plan "drop:1,2:1") ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : int) -> ());
  Sim.Network.send net ~src:1 ~dst:2 0;
  Sim.Network.send net ~src:2 ~dst:1 0;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "1 -> 2 dead link" 0 (Sim.Metrics.received (m net) 2);
  check Alcotest.int "2 -> 1 unaffected" 1 (Sim.Metrics.received (m net) 1);
  check Alcotest.int "one drop" 1 (Sim.Metrics.dropped (m net))

let test_partition_heals () =
  (* Processors 1-2 are cut off from 3-4 during [0, 5). A cross-cut send
     at t = 0 vanishes; the same send re-issued by a timer at t = 6 gets
     through; intra-side traffic is never affected. *)
  let net = Sim.Network.create ~faults:(plan "part:1-2@0,5") ~n:4 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : int) -> ());
  Sim.Network.send net ~src:1 ~dst:3 0 (* crosses the cut: lost *);
  Sim.Network.send net ~src:1 ~dst:2 0 (* same side: fine *);
  Sim.Network.send net ~src:3 ~dst:4 0 (* other side: fine *);
  Sim.Network.schedule_local net ~delay:6. (fun () ->
      Sim.Network.send net ~src:1 ~dst:3 0 (* healed: delivered *));
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "cut send lost" 1 (Sim.Metrics.dropped (m net));
  check Alcotest.int "post-heal send arrives" 1 (Sim.Metrics.received (m net) 3);
  check Alcotest.int "intra-side 1 -> 2" 1 (Sim.Metrics.received (m net) 2);
  check Alcotest.int "intra-side 3 -> 4" 1 (Sim.Metrics.received (m net) 4)

let test_recover_at_time () =
  (* 2 crashes at t = 1.5 and rejoins at t = 5: a probe at t = 2 dies on
     the corpse, a probe launched by timer at t = 6 is answered again. *)
  let net = Sim.Network.create ~faults:(plan "crash:2@1.5/recover:2@5") ~n:2 () in
  let replies = ref 0 in
  Sim.Network.set_handler net (fun ~self ~src (_ : int) ->
      if self = 2 then Sim.Network.send net ~src:2 ~dst:1 0
      else begin
        incr replies;
        ignore src
      end);
  Sim.Network.send net ~src:1 ~dst:2 0 (* t=1: answered (reply 1) *);
  Sim.Network.schedule_local net ~delay:2. (fun () ->
      Sim.Network.send net ~src:1 ~dst:2 0 (* t=3: dropped on corpse *));
  Sim.Network.schedule_local net ~delay:6. (fun () ->
      Sim.Network.send net ~src:1 ~dst:2 0 (* t=7: answered (reply 2) *));
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.bool "2 alive again" false (Sim.Network.crashed net 2);
  check Alcotest.bool "2 recovered" true (Sim.Network.recovered net 2);
  check Alcotest.bool "2 ever crashed" true (Sim.Network.ever_crashed net 2);
  check Alcotest.bool "1 never crashed" false (Sim.Network.ever_crashed net 1);
  check Alcotest.(list int) "rejoin pool" [ 2 ]
    (Sim.Network.recovered_processors net);
  check Alcotest.int "replies before and after" 2 !replies;
  check Alcotest.int "mid-outage probe lost" 1 (Sim.Metrics.dropped (m net));
  check Alcotest.int "one crash" 1 (Sim.Metrics.crashes (m net));
  check Alcotest.int "one recovery" 1 (Sim.Metrics.recoveries (m net))

let test_recover_then_recrash () =
  (* crash@1 / recover@3 / crash@5: the second crash clause re-applies
     after the revival, and the pool no longer lists the processor. *)
  let net =
    Sim.Network.create ~faults:(plan "crash:2@1/recover:2@3/crash:2@5") ~n:2 ()
  in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : int) -> ());
  Sim.Network.schedule_local net ~delay:4. (fun () ->
      check Alcotest.bool "alive between" false (Sim.Network.crashed net 2));
  Sim.Network.schedule_local net ~delay:6. (fun () ->
      check Alcotest.bool "down again" true (Sim.Network.crashed net 2));
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.bool "still down at quiescence" true (Sim.Network.crashed net 2);
  check Alcotest.(list int) "pool empty while down" []
    (Sim.Network.recovered_processors net);
  check Alcotest.int "two crash events" 2 (Sim.Metrics.crashes (m net));
  check Alcotest.int "one recovery" 1 (Sim.Metrics.recoveries (m net))

let test_recover_before_crash_is_noop () =
  (* A revival scheduled before the processor ever goes down fizzles; the
     later crash still applies. *)
  let net = Sim.Network.create ~faults:(plan "crash:2@9/recover:2@1") ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : int) -> ());
  Sim.Network.schedule_local net ~delay:10. (fun () -> ());
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.bool "crashed in the end" true (Sim.Network.crashed net 2);
  check Alcotest.int "no recovery fired" 0 (Sim.Metrics.recoveries (m net))

let test_trace_annotations () =
  let net = Sim.Network.create ~faults:(plan "drop:1") ~n:2 () in
  Sim.Network.set_handler net (fun ~self:_ ~src:_ (_ : int) -> ());
  Sim.Network.begin_op net ~origin:1;
  Sim.Network.send net ~src:1 ~dst:2 0;
  let tr = Sim.Network.end_op net in
  check Alcotest.int "one fault on the trace" 1 (Sim.Trace.fault_count tr);
  match Sim.Trace.faults tr with
  | [ f ] ->
      check Alcotest.bool "kind = Dropped" true (f.Sim.Trace.kind = Sim.Trace.Dropped);
      check Alcotest.(pair int int) "link" (1, 2)
        (f.Sim.Trace.fault_src, f.Sim.Trace.fault_dst)
  | _ -> Alcotest.fail "expected exactly one fault annotation"

let test_network_faults_accessor () =
  let f = plan "crash:2@1.5/drop:0.25" in
  let net = Sim.Network.create ~faults:f ~n:4 () in
  check Alcotest.string "plan round-trips through the net"
    (Sim.Fault.to_string f)
    (Sim.Fault.to_string (Sim.Network.faults net));
  let bare = Sim.Network.create ~n:4 () in
  check Alcotest.bool "default plan is none" true
    (Sim.Fault.is_none (Sim.Network.faults bare))

(* ------------------------------------------------------------------ *)
(* Failure-aware counters *)

let outcome_str o = Format.asprintf "%a" Counter.Counter_intf.pp_outcome o

let test_quorum_majority_completes_under_crashes () =
  (* n = 9, f = 4 = ceil(n/2) - 1 processors dead from the start: every
     operation by a live origin must still complete, and — majority
     quorums pairwise intersect — values stay sequential. *)
  let module QM = Baselines.Quorum_counter.Over_majority in
  let faults = plan "crash:1@0/crash:2@0/crash:3@0/crash:4@0" in
  let c = QM.create ~seed:11 ~n:9 ~faults () in
  check Alcotest.bool "victim crashed" true (QM.crashed c 1);
  check Alcotest.bool "origin alive" false (QM.crashed c 5);
  List.iteri
    (fun i origin ->
      match QM.inc_result c ~origin with
      | Counter.Counter_intf.Completed v ->
          check Alcotest.int
            (Printf.sprintf "op %d sequential" i)
            i v
      | Counter.Counter_intf.Stalled reason ->
          Alcotest.failf "live origin %d stalled: %s" origin reason)
    [ 5; 6; 7; 8; 9; 5; 6; 7 ]

let test_quorum_crashed_origin_stalls () =
  let module QM = Baselines.Quorum_counter.Over_majority in
  let c = QM.create ~seed:3 ~n:5 ~faults:(plan "crash:2@0") () in
  match QM.inc_result c ~origin:2 with
  | Counter.Counter_intf.Stalled _ -> ()
  | Counter.Counter_intf.Completed v ->
      Alcotest.failf "crashed origin completed with %d" v

let test_retire_counter_stalls_typed () =
  (* Kill every processor except the origin: the retirement tree's path
     is dead, so the operation can never answer. It must surface a typed
     Stalled outcome — not hang, not storm, not raise Failure. *)
  let module R = Core.Retire_counter in
  let faults =
    plan "crash:1@0/crash:2@0/crash:3@0/crash:4@0/crash:6@0/crash:7@0/crash:8@0"
  in
  let c = R.create ~n:8 ~seed:5 ~faults () in
  (match R.inc_result c ~origin:5 with
  | Counter.Counter_intf.Stalled reason ->
      check Alcotest.bool "reason is descriptive" true
        (String.length reason > 0)
  | Counter.Counter_intf.Completed v ->
      Alcotest.failf "operation completed with %d despite a dead tree" v);
  (* And the exception form for callers that use [inc] directly. *)
  match R.inc c ~origin:5 with
  | exception Counter.Counter_intf.Stall _ -> ()
  | v -> Alcotest.failf "inc returned %d despite a dead tree" v

let test_driver_tallies_stalls () =
  let report =
    Counter.Driver.run ~seed:9 ~faults:(plan "crash:1@0")
      Baselines.Registry.quorum_majority ~n:5 ~schedule:Counter.Schedule.Each_once
  in
  check Alcotest.int "ops" 5 report.Counter.Driver.ops;
  check Alcotest.int "one stall (the crashed origin)" 1
    report.Counter.Driver.stalled;
  check Alcotest.int "rest completed" 4 report.Counter.Driver.completed;
  check Alcotest.bool "run not correct" false
    (report.Counter.Driver.values_exact
    && report.Counter.Driver.sequentially_ordered);
  check Alcotest.(array int) "live values still sequential" [| 0; 1; 2; 3 |]
    report.Counter.Driver.values;
  check Alcotest.int "one reason per stall" 1
    (List.length report.Counter.Driver.stall_reasons)

let test_fault_run_reproducible () =
  (* Same (seed, plan) twice: identical outcomes and an identical
     per-processor load checksum — probabilistic faults draw from the
     network's seeded stream, nothing else. *)
  let module QM = Baselines.Quorum_counter.Over_majority in
  let run () =
    let c =
      QM.create ~seed:2024 ~n:9 ~faults:(plan "drop:0.05/dup:0.02") ()
    in
    let outcomes =
      List.map
        (fun origin -> outcome_str (QM.inc_result c ~origin))
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    in
    (outcomes, Sim.Metrics.checksum (QM.metrics c))
  in
  let o1, c1 = run () and o2, c2 = run () in
  check Alcotest.(list string) "outcomes agree" o1 o2;
  check Alcotest.int "checksums agree" c1 c2

(* Duplication faults: every counter, closed and open loop, must come
   back with typed outcomes only — no Failure, no Invalid_argument from a
   duplicated grant or handoff piece. 3n ops from origins 1 + 7i mod n;
   the open-loop arrivals are one time unit apart, so they overlap. *)
let every_counter =
  Baselines.Registry.all
  @ (Baselines.Registry.sync_count :: Baselines.Registry.broken)

let test_duplication_typed_outcomes () =
  let faults = plan "dup:0.05" in
  List.iter
    (fun (module C : Counter.Counter_intf.S) ->
      let n =
        C.supported_n
          (if C.name = "sync-count" || C.name = "sync-no-threshold" then 7
           else 16)
      in
      let ops = 3 * n in
      let origins = List.init ops (fun i -> 1 + (7 * i mod n)) in
      List.iter
        (fun delay ->
          for seed = 1 to 3 do
            let run =
              Format.asprintf "%s seed %d %a" C.name seed Sim.Delay.pp delay
            in
            let closed = C.create ~seed ~delay ~faults ~n () in
            List.iter
              (fun origin ->
                match C.inc_result closed ~origin with
                | Counter.Counter_intf.Completed _ | Stalled _ -> ()
                | exception e ->
                    Alcotest.failf "%s closed: %s" run (Printexc.to_string e))
              origins;
            let opened = C.create ~seed ~delay ~faults ~n () in
            match
              List.iteri
                (fun op origin ->
                  C.launch_at opened ~op ~origin ~at:(float_of_int op))
                origins;
              C.run_open opened
            with
            | () ->
                List.iter
                  (fun (op, _, _) ->
                    if op < 0 || op >= ops then
                      Alcotest.failf "%s open: unknown op %d" run op)
                  (C.completions opened)
            | exception e ->
                Alcotest.failf "%s open: %s" run (Printexc.to_string e)
          done)
        [ Sim.Delay.Constant 1.0; Sim.Delay.Exponential 1.0 ])
    every_counter

(* A duplicated reply is counted once: each quorum member answers a
   phase at most once toward its quorum, so under heavy duplication and
   no crash every round-robin value is still exact. A client that counts
   a duplicate as a second member's answer ends a phase early, before
   the read has met the quorum that holds the latest write. *)
let quorum_counters : Counter.Counter_intf.counter list =
  Baselines.Quorum_counter.
    [
      (module Over_majority);
      (module Over_grid);
      (module Over_tree);
      (module Over_wall);
      (module Over_plane);
    ]

let test_quorum_duplicates_counted_once () =
  let faults = plan "dup:0.5" in
  List.iter
    (fun ((module C : Counter.Counter_intf.S) as counter) ->
      let n = C.supported_n 16 in
      List.iter
        (fun delay ->
          let report =
            Counter.Driver.run ~seed:3 ~delay ~faults counter ~n
              ~schedule:(Counter.Schedule.Round_robin (3 * n))
          in
          check Alcotest.bool
            (Format.asprintf "%s %a values exact" C.name Sim.Delay.pp delay)
            true report.Counter.Driver.values_exact)
        [ Sim.Delay.Constant 1.0; Sim.Delay.Exponential 1.0 ])
    quorum_counters

(* ------------------------------------------------------------------ *)
(* Promises: each rule of Counter.Promise on synthetic rows, past its
   boundary and at it — the reference that no rule got looser. *)

module P = Counter.Promise

let acked v = (Counter.Counter_intf.Completed v, true)

let stalled ?(alive = true) reason =
  (Counter.Counter_intf.Stalled reason, alive)

let row ?(plan = Sim.Fault.none) ?(n = 9) ?ops ?(value = 0) outcomes =
  let ops = Option.value ops ~default:(List.length outcomes) in
  { P.plan; n; ops; outcomes; value }

(* The plan crashing processors 1 .. k at time 0, plus [extra] clauses. *)
let crashes ?(extra = []) k =
  plan
    (String.concat "/"
       (List.init k (fun i -> Printf.sprintf "crash:%d@0" (i + 1)) @ extra))

(* Each rule past its boundary and at it: (case, promise, row, whether
   the row breaks the promise). *)
let promise_cases =
  let live = [ acked 0; stalled "Quorum_counter.inc: gave up" ]
  and dead = [ acked 0; stalled ~alive:false "no value returned" ]
  and names_origin = [ acked 0; stalled "Retire_ft.inc: origin crashed" ]
  and split = [ acked 0; stalled "spec: agreement violated: replica 1" ]
  and turned b = Core.Sync_counter.king_plan ~n:7 ~b in
  let drop k = crashes ~extra:[ "drop:0.1" ] k
  and dup k = crashes ~extra:[ "dup:0.01" ] k in
  (* n = 9: (n - 1) / 2 = 4 crashes is the last row Quorum_live covers. *)
  P.
    [
      ("quorum: 4 of 9 down", Quorum_live, row ~plan:(crashes 4) live, true);
      ("quorum: 5 of 9 down", Quorum_live, row ~plan:(crashes 5) live, false);
      ("quorum: drop 0.1", Quorum_live, row ~plan:(drop 4) live, false);
      ("quorum: dup > 0", Quorum_live, row ~plan:(dup 4) live, false);
      ("quorum: origin died", Quorum_live, row ~plan:(crashes 4) dead, false);
      ( "quorum: reason names the origin",
        Quorum_live,
        row ~plan:(crashes 1) names_origin,
        true );
      ( "retire-ft: reason names the origin",
        Live_origins,
        row ~plan:(crashes 1) names_origin,
        false );
      ("retire-ft: live", Live_origins, row ~plan:(crashes 8) live, true);
      ("retire-ft: drop 0.1", Live_origins, row ~plan:(drop 8) live, false);
      ("retire-ft: dup > 0", Live_origins, row ~plan:(dup 8) live, false);
      ("retire-ft: dead", Live_origins, row ~plan:(crashes 8) dead, false);
      ("agreement: b = f", Agreement, row ~n:7 ~plan:(turned 2) split, true);
      ("agreement: b > f", Agreement, row ~n:7 ~plan:(turned 3) split, false);
      ("agreement: a crash", Agreement, row ~n:7 ~plan:(crashes 1) live, false);
      ( "splits: b = 1, no agreement stall",
        Splits,
        row ~n:7 ~plan:(turned 1) [ acked 0; acked 1 ],
        true );
      ("splits: b = 1, split", Splits, row ~n:7 ~plan:(turned 1) split, false);
      ("splits: b = 0", Splits, row ~n:7 [ acked 0; acked 1 ], false);
    ]

let test_promise_rules () =
  List.iter
    (fun (case, promise, r, broken) ->
      check Alcotest.bool case broken (P.check promise r <> []))
    promise_cases

let test_promise_durable () =
  let durable ~value outcomes =
    P.check Durable (row ~plan:(crashes 1) ~value outcomes)
  in
  check Alcotest.(list string) "duplicate ack"
    [ "value 1 acked twice" ]
    (durable ~value:3 [ acked 1; acked 0; acked 1 ]);
  check Alcotest.(list string) "ack at the durable count"
    [ "acked value 2 lost (durable count 2)" ]
    (durable ~value:2 [ acked 0; acked 2 ]);
  check Alcotest.(list string) "more acks than the durable count"
    [ "value 0 acked twice"; "3 acks but durable count 2" ]
    (durable ~value:2 [ acked 0; acked 0; acked 1 ]);
  check Alcotest.(list string) "spec stall, reported once"
    [ "spec violation: lost update" ]
    (durable ~value:1
       [ acked 0; stalled "spec: lost update"; stalled "spec: lost update" ]);
  (* The reason [mc --replay data/durable_no_cas_n2.mcs] reports: the
     counter prefixes the monitor's tag with its own name. *)
  let regressed =
    "manifest-monotonicity: epoch=0;snap=1;low=0;active=0 regressed to \
     epoch=1;snap=0;low=0;active=0"
  in
  check Alcotest.(list string) "spec stall behind the counter's prefix"
    [ "spec violation: " ^ regressed ]
    (durable ~value:1
       [ acked 0; stalled ("Durable_counter.inc: spec: " ^ regressed) ]);
  check Alcotest.(list string) "an unacked durable increment is fine" []
    (durable ~value:4
       [ acked 0; acked 1; stalled ~alive:false "origin crashed"; acked 3 ])

let test_promise_fault_free () =
  List.iter
    (fun promise ->
      check Alcotest.bool "fault-free stall fires" true
        (List.mem "fault-free row completed 1/2 operations"
           (P.check promise
              (row ~value:1 [ acked 0; stalled "no value returned" ])));
      check Alcotest.bool "fault-free skipped op fires" true
        (P.check promise (row ~ops:2 ~value:1 [ acked 0 ]) <> []);
      check Alcotest.(list string) "fault-free row that completes" []
        (P.check promise (row ~n:7 ~value:2 [ acked 0; acked 1 ])))
    [ Completes; Quorum_live; Live_origins; Durable; Agreement; Splits ]

let test_registry_promise () =
  List.iter
    (fun (counter, expected) ->
      check Alcotest.bool counter true
        (Baselines.Registry.promise counter = expected))
    P.
      [
        ("retire-ft", Live_origins);
        ("durable", Durable);
        ("sync-count", Agreement);
        ("sync-no-threshold", Splits);
        ("quorum-majority", Quorum_live);
        ("quorum-projective-plane", Quorum_live);
        ("central", Completes);
      ]

let () =
  Alcotest.run "fault"
    [
      ( "grammar",
        [
          Alcotest.test_case "round-trips" `Quick test_parse_round_trips;
          Alcotest.test_case "structure" `Quick test_parse_structure;
          Alcotest.test_case "rejects malformed" `Quick test_parse_rejects;
          Alcotest.test_case "recover requires crash" `Quick
            test_recover_requires_crash;
          Alcotest.test_case "is_none" `Quick test_is_none;
          Alcotest.test_case "drop_on" `Quick test_drop_on;
          Alcotest.test_case "partitioned" `Quick test_partitioned;
          Alcotest.test_case "store plan statics" `Quick
            test_store_plan_statics;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest qcheck_delay_round_trip;
          QCheck_alcotest.to_alcotest qcheck_fault_round_trip;
        ] );
      ( "network",
        [
          Alcotest.test_case "crash at time" `Quick test_crash_at_time;
          Alcotest.test_case "crash after deliveries" `Quick
            test_crash_after_deliveries;
          Alcotest.test_case "crashed sender suppressed" `Quick
            test_crashed_sender_suppressed;
          Alcotest.test_case "manual crash API" `Quick test_manual_crash_api;
          Alcotest.test_case "drop all" `Quick test_drop_all;
          Alcotest.test_case "duplicate all" `Quick test_duplicate_all;
          Alcotest.test_case "per-link drop" `Quick test_per_link_drop;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "recover at time" `Quick test_recover_at_time;
          Alcotest.test_case "recover then re-crash" `Quick
            test_recover_then_recrash;
          Alcotest.test_case "recover before crash no-op" `Quick
            test_recover_before_crash_is_noop;
          Alcotest.test_case "trace annotations" `Quick test_trace_annotations;
          Alcotest.test_case "faults accessor" `Quick
            test_network_faults_accessor;
        ] );
      ( "counters",
        [
          Alcotest.test_case "quorum-majority completes under f=4/9 crashes"
            `Quick test_quorum_majority_completes_under_crashes;
          Alcotest.test_case "crashed origin stalls" `Quick
            test_quorum_crashed_origin_stalls;
          Alcotest.test_case "retire counter stalls typed" `Quick
            test_retire_counter_stalls_typed;
          Alcotest.test_case "driver tallies stalls" `Quick
            test_driver_tallies_stalls;
          Alcotest.test_case "fault runs reproducible" `Quick
            test_fault_run_reproducible;
          Alcotest.test_case "duplication gives typed outcomes" `Quick
            test_duplication_typed_outcomes;
          Alcotest.test_case "quorum duplicates counted once" `Quick
            test_quorum_duplicates_counted_once;
        ] );
      ( "promises",
        [
          Alcotest.test_case "rules at their boundaries" `Quick
            test_promise_rules;
          Alcotest.test_case "durable" `Quick test_promise_durable;
          Alcotest.test_case "fault-free row" `Quick test_promise_fault_free;
          Alcotest.test_case "registry" `Quick test_registry_promise;
        ] );
    ]
