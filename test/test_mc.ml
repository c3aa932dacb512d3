(* The delivery-interleaving model checker: exhaustive verification of
   small configurations, violation hunting on the deliberately broken
   counters, deterministic counterexample replay, and the pruning /
   budget machinery. *)

let check = Alcotest.check

let get name =
  match Baselines.Registry.find name with
  | Some c -> c
  | None -> Alcotest.failf "counter %s not in registry" name

let explore ?faults ?config ?(schedule = Counter.Schedule.Each_once) name ~n =
  Mc.Explore.check ?faults ?config (get name) ~n ~schedule

let is_exhausted (o : Mc.Explore.outcome) =
  match o.verdict with Mc.Explore.Exhausted_ok -> true | _ -> false

let the_violation (o : Mc.Explore.outcome) =
  match o.verdict with
  | Mc.Explore.Violation_found v -> v
  | Mc.Explore.Exhausted_ok -> Alcotest.fail "expected a violation, got ok"
  | Mc.Explore.Budget_exhausted ->
      Alcotest.fail "expected a violation, got budget exhaustion"

(* ------------------------------------------------------------------ *)
(* Exhaustive verification of correct counters *)

let test_central_exhaustive () =
  List.iter
    (fun n ->
      let o = explore "central" ~n in
      check Alcotest.bool "exhausted" true (is_exhausted o);
      check Alcotest.bool "at least one execution" true
        (o.stats.Mc.Explore.executions >= 1))
    [ 2; 3; 4; 5 ]

let test_simple_counters_exhaustive () =
  (* One message in flight at a time under the sequential model: a single
     execution covers the whole space, and it must be clean. *)
  List.iter
    (fun name ->
      let o = explore name ~n:4 in
      check Alcotest.bool (name ^ " exhausted") true (is_exhausted o))
    [ "static-tree"; "combining"; "counting-net"; "diffracting" ]

let test_single_processor_no_bound () =
  (* At n = 1 the each-once schedule is one local increment with no
     message: bottleneck load 0 is no lower-bound violation. *)
  List.iter
    (fun name ->
      let o = explore name ~n:1 in
      check Alcotest.bool (name ^ " exhausted at n = 1") true (is_exhausted o))
    [ "central"; "combining"; "quorum-majority"; "quorum-grid"; "quorum-tree";
      "quorum-crumbling-wall" ]

let test_retire_tree_exhaustive_small () =
  (* Full each-once at n = 8 explodes once retirements cascade (measured:
     > 3M decision points by the 4th operation), so the exhaustive claim
     is made on 3-operation prefixes, where the space is ~1.4k states. *)
  let o =
    explore "retire-tree" ~n:8
      ~schedule:(Counter.Schedule.Explicit [ 1; 8; 4 ])
  in
  check Alcotest.bool "exhausted" true (is_exhausted o);
  check Alcotest.bool "real branching explored" true
    (o.stats.Mc.Explore.executions > 10)

let test_quorum_exhaustive_small () =
  (* Fault-free quorum keeps exactly one message in flight (the origin
     polls replicas in turn), so the whole space is one execution — a
     structural fact worth pinning: branching only appears under crash
     plans, where timeouts and retransmissions overlap. *)
  let o =
    explore "quorum-majority" ~n:3
      ~schedule:(Counter.Schedule.Explicit [ 1; 2 ])
  in
  check Alcotest.bool "exhausted" true (is_exhausted o);
  check Alcotest.int "sequential: a single execution" 1
    o.stats.Mc.Explore.executions;
  check Alcotest.int "never two messages pending" 1
    o.stats.Mc.Explore.max_enabled

(* ------------------------------------------------------------------ *)
(* Broken counters *)

let test_amnesiac_violation_no_decisions () =
  (* No messages => no decision points: the violation shows up on the
     single empty-schedule execution. *)
  let o = explore "amnesiac" ~n:4 in
  let v = the_violation o in
  check Alcotest.string "property" "values-wrong"
    (Mc.Explore.property_name v.Mc.Explore.property);
  check Alcotest.(list string) "no decisions" []
    (List.map Mc.Enabled.to_token v.Mc.Explore.decisions)

let test_race_reply_needs_adversarial_order () =
  (* The whole point of the model checker: the default delivery order
     hides this bug from every schedule-sweep test... *)
  let r = Counter.Driver.run_each_once (get "race-reply") ~n:3 in
  check Alcotest.bool "driver sees a correct counter" true
    (r.Counter.Driver.values_exact && r.Counter.Driver.sequentially_ordered);
  let stats =
    Core.Exhaustive.verify_counter (get "race-reply") ~n:3
  in
  check Alcotest.bool "exhaustive op-order sweep sees a correct counter" true
    stats.Core.Exhaustive.all_correct;
  (* ...and adversarial delivery order exposes it. *)
  let v = the_violation (explore "race-reply" ~n:3) in
  check Alcotest.string "property" "values-wrong"
    (Mc.Explore.property_name v.Mc.Explore.property)

let test_race_reply_violation_replays () =
  let v = the_violation (explore "race-reply" ~n:3) in
  match
    Mc.Explore.run_schedule (get "race-reply") ~n:3
      ~schedule:Counter.Schedule.Each_once ~decisions:v.Mc.Explore.decisions
  with
  | Error e -> Alcotest.failf "replay diverged: %s" e
  | Ok None -> Alcotest.fail "replay was clean"
  | Ok (Some v') ->
      check Alcotest.string "same property"
        (Mc.Explore.property_name v.Mc.Explore.property)
        (Mc.Explore.property_name v'.Mc.Explore.property);
      check Alcotest.string "same detail" v.Mc.Explore.detail
        v'.Mc.Explore.detail

(* ------------------------------------------------------------------ *)
(* Counterexample files *)

let test_counterexample_round_trip () =
  let v = the_violation (explore "race-reply" ~n:3) in
  let cx =
    Mc.Replay.of_violation ~counter:"race-reply" ~n:3 ~seed:42
      ~schedule:Counter.Schedule.Each_once ~faults:Sim.Fault.none v
  in
  let s = Mc.Replay.to_string cx in
  (match Mc.Replay.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok cx' ->
      check Alcotest.bool "round trip" true (cx = cx');
      check Alcotest.string "canonical" s (Mc.Replay.to_string cx'));
  check Alcotest.bool "reproduces" true
    (Mc.Replay.reproduces (get "race-reply") cx)

(* Under `dune runtest` the cwd is the test sandbox (data/ copied in by
   the stanza's deps); under a bare `dune exec` it is the repo root. *)
let data_file name =
  let local = Filename.concat "data" name in
  if Sys.file_exists local then local
  else Filename.concat "test" (Filename.concat "data" name)

let test_stored_counterexample_is_canonical () =
  (* The stored file must be byte-for-byte what the checker would emit
     today — the same comparison `make test-mc` performs. *)
  let stored =
    In_channel.with_open_text (data_file "race_reply_n3.mcs")
      In_channel.input_all
  in
  let v = the_violation (explore "race-reply" ~n:3) in
  let cx =
    Mc.Replay.of_violation ~counter:"race-reply" ~n:3 ~seed:42
      ~schedule:Counter.Schedule.Each_once ~faults:Sim.Fault.none v
  in
  check Alcotest.string "byte-for-byte" stored (Mc.Replay.to_string cx);
  match Mc.Replay.of_string stored with
  | Error e -> Alcotest.failf "stored file unparseable: %s" e
  | Ok stored_cx ->
      check Alcotest.bool "stored file reproduces its violation" true
        (Mc.Replay.reproduces (get "race-reply") stored_cx)

let test_counterexample_rejects_garbage () =
  let bad s =
    match Mc.Replay.of_string s with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "missing fields" true (bad "counter=central\n");
  check Alcotest.bool "bad token" true
    (bad
       "counter=central\nn=3\nseed=1\nschedule=each-once\nfaults=none\n\
        property=values-wrong\ndecisions=1>>2\n");
  check Alcotest.bool "bad property" true
    (bad
       "counter=central\nn=3\nseed=1\nschedule=each-once\nfaults=none\n\
        property=nonsense\ndecisions=\n")

let test_run_schedule_rejects_divergent () =
  match
    Mc.Explore.run_schedule (get "central") ~n:3
      ~schedule:Counter.Schedule.Each_once
      ~decisions:[ Mc.Enabled.Link (3, 2) ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a non-enabled decision must be an error"

(* ------------------------------------------------------------------ *)
(* Pruning and budgets *)

let test_prune_modes_agree () =
  List.iter
    (fun (name, n, schedule) ->
      let outcome prune =
        Mc.Explore.check
          ~config:{ Mc.Explore.default_config with prune }
          (get name) ~n ~schedule
      in
      let sleep = outcome Mc.Prune.Sleep and none = outcome Mc.Prune.No_prune in
      let verdict_name (o : Mc.Explore.outcome) =
        match o.verdict with
        | Mc.Explore.Exhausted_ok -> "ok"
        | Mc.Explore.Violation_found v ->
            "violation:" ^ Mc.Explore.property_name v.Mc.Explore.property
        | Mc.Explore.Budget_exhausted -> "budget"
      in
      check Alcotest.string
        (Printf.sprintf "%s n=%d verdicts agree" name n)
        (verdict_name none) (verdict_name sleep);
      check Alcotest.bool
        (Printf.sprintf "%s n=%d sleep explores no more executions" name n)
        true
        (sleep.stats.Mc.Explore.executions <= none.stats.Mc.Explore.executions))
    [
      ("central", 4, Counter.Schedule.Each_once);
      ("race-reply", 3, Counter.Schedule.Each_once);
      ("retire-tree", 8, Counter.Schedule.Explicit [ 1; 8 ]);
      ("quorum-majority", 3, Counter.Schedule.Explicit [ 1; 2 ]);
    ]

let test_sleep_actually_prunes () =
  (* Two concurrent retire-tree operations overlap heavily on disjoint
     links; sleep sets collapse the commuting reorderings (measured:
     16 executions vs 120 without pruning). *)
  let outcome prune =
    Mc.Explore.check
      ~config:{ Mc.Explore.default_config with prune }
      (get "retire-tree") ~n:8
      ~schedule:(Counter.Schedule.Explicit [ 1; 8 ])
  in
  let sleep = outcome Mc.Prune.Sleep and none = outcome Mc.Prune.No_prune in
  check Alcotest.bool "fewer executions under sleep sets" true
    (sleep.stats.Mc.Explore.executions < none.stats.Mc.Explore.executions);
  check Alcotest.bool "skips counted" true
    (sleep.stats.Mc.Explore.sleep_skips > 0)

let test_budget_exhaustion_is_typed () =
  let o =
    explore "retire-tree" ~n:8
      ~config:{ Mc.Explore.default_config with max_states = 100 }
  in
  (match o.verdict with
  | Mc.Explore.Budget_exhausted -> ()
  | _ -> Alcotest.fail "expected Budget_exhausted");
  check Alcotest.int "stopped at the budget" 100 o.stats.Mc.Explore.states

let test_depth_cap_downgrades_verdict () =
  let o =
    explore "central" ~n:4
      ~config:{ Mc.Explore.default_config with max_depth = 2 }
  in
  match o.verdict with
  | Mc.Explore.Budget_exhausted ->
      check Alcotest.bool "capped decisions counted" true
        (o.stats.Mc.Explore.depth_capped > 0)
  | _ -> Alcotest.fail "a depth-capped exploration must not claim exhaustion"

(* ------------------------------------------------------------------ *)
(* Crash-fault branching *)

let crash_plan spec =
  match Sim.Fault.of_string spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "bad plan %s: %s" spec e

let test_crash_branching_central () =
  (* Crashing the holder adversarially at every point: operations may
     stall, values may gap, but no duplicate value may ever appear. *)
  let o = explore "central" ~n:3 ~faults:(crash_plan "crash:1@99") in
  check Alcotest.bool "exhausted" true (is_exhausted o);
  check Alcotest.bool "crash choices branch the space" true
    (o.stats.Mc.Explore.executions > 1);
  check Alcotest.bool "crash widens enabled sets" true
    (o.stats.Mc.Explore.max_enabled >= 2)

let test_crash_branching_quorum () =
  (* Crashing a replica turns sequential quorum polling into a genuinely
     concurrent space (timeouts and retransmissions overlap) that blows
     any small budget even for one operation — so this is a bounded
     search: no violation may surface in the explored prefix. *)
  let o =
    explore "quorum-majority" ~n:3
      ~schedule:(Counter.Schedule.Explicit [ 1 ])
      ~faults:(crash_plan "crash:3@99")
      ~config:{ Mc.Explore.default_config with max_states = 20_000 }
  in
  (match o.verdict with
  | Mc.Explore.Violation_found v ->
      Alcotest.failf "violation under crash: %s" v.Mc.Explore.detail
  | Mc.Explore.Exhausted_ok | Mc.Explore.Budget_exhausted -> ());
  check Alcotest.bool "crash widens the space past the sequential case" true
    (o.stats.Mc.Explore.max_enabled > 1)

let test_probabilistic_plans_rejected () =
  Alcotest.check_raises "drop plans cannot be model-checked"
    (Invalid_argument
       "Mc.Explore: probabilistic fault clauses (drop/dup/partitions) \
        cannot be model-checked; only crash/recover victims are supported")
    (fun () -> ignore (explore "central" ~n:3 ~faults:(crash_plan "drop:0.5")));
  Alcotest.check_raises "store plans cannot be model-checked"
    (Invalid_argument
       "Mc.Explore: store-RPC fault clauses (sdrop/sdup/sslow/sout) cannot \
        be model-checked; the adversary already owns delivery \
        nondeterminism, including store traffic")
    (fun () -> ignore (explore "durable" ~n:2 ~faults:(crash_plan "sdup:0.5")))

(* ------------------------------------------------------------------ *)
(* Exact exploration statistics: one row per scheduler-mode feature, as
   [dcount mc] prints them for the same plan. Any change to the enabled
   sets, their order or the decision keys moves at least one figure. *)

let stats_golden ~name ~n ~schedule ~faults ~max_states ~max_depth ~verdict
    (executions, states, max_depth_seen, max_enabled, sleep_skips,
     depth_capped) =
  let schedule =
    match Counter.Schedule.of_string schedule with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad schedule: %s" e
  in
  let o =
    explore name ~n ~schedule ~faults:(crash_plan faults)
      ~config:{ Mc.Explore.default_config with max_states; max_depth }
  in
  let got =
    match o.verdict with
    | Mc.Explore.Exhausted_ok -> "exhausted"
    | Mc.Explore.Budget_exhausted -> "budget"
    | Mc.Explore.Violation_found v -> Mc.Explore.property_name v.property
  in
  check Alcotest.string (name ^ " verdict") verdict got;
  let s = o.stats in
  check
    Alcotest.(list int)
    (name ^ " executions/states/max_depth/max_enabled/sleep_skips/depth_capped")
    [ executions; states; max_depth_seen; max_enabled; sleep_skips;
      depth_capped ]
    Mc.Explore.
      [ s.executions; s.states; s.max_depth_seen; s.max_enabled;
        s.sleep_skips; s.depth_capped ]

let test_stats_plain_links () =
  stats_golden ~name:"retire-tree" ~n:8 ~schedule:"explicit:1,8,4,2"
    ~faults:"none" ~max_states:20_000 ~max_depth:400 ~verdict:"budget"
    (137, 20_000, 56, 8, 50_187, 0)

let test_stats_timers_and_sweep () =
  stats_golden ~name:"ft-no-handoff" ~n:8 ~schedule:"explicit:2,5"
    ~faults:"crash:1@99" ~max_states:200_000 ~max_depth:6
    ~verdict:"duplicate-value"
    (367, 93, 6, 13, 131, 20_035)

let test_stats_unordered_and_revival () =
  stats_golden ~name:"durable-no-cas" ~n:2 ~schedule:"explicit:2"
    ~faults:"crash:1@99/recover:1@120" ~max_states:300_000 ~max_depth:10
    ~verdict:"manifest-regressed"
    (5_460, 2_647, 10, 7, 38, 117_526)

let test_stats_byzantine_turn () =
  stats_golden ~name:"sync-count" ~n:4 ~schedule:"explicit:1"
    ~faults:"byz:2@99/byzval:2:off-by-1/byzeq:2" ~max_states:4_000
    ~max_depth:100 ~verdict:"budget"
    (1_379, 4_000, 61, 9, 1_403, 0)

(* ------------------------------------------------------------------ *)
(* Durable counter: the recover adversary and the oswald spec properties *)

let recover_plan = crash_plan "crash:1@99/recover:1@120"

(* [Core.Durable_counter] at the negative control's aggressive cadence
   (roll every record, snapshot every count) but with CAS intact — the
   exact pairing that shows the compare-and-swap is what stands between
   the durable counter and the stored manifest regression. *)
let durable_cas_tight : Counter.Counter_intf.counter =
  (module struct
    module D = Core.Durable_counter

    type t = D.t

    let name = "durable-cas-tight"
    let describe = "durable counter at the negative control's cadence"
    let supported_n = D.supported_n

    let create ?seed ?delay ?faults ~n () =
      D.create_raw ?seed ?delay ?faults ~cas:true ~chunk_records:1
        ~snap_every:1 ~n ()

    let n = D.n
    let value = D.value
    let metrics = D.metrics
    let traces = D.traces
    let inc = D.inc
    let inc_result = D.inc_result
    let crashed = D.crashed
    let clone = D.clone
  end)

let test_durable_exhaustive_fault_free () =
  (* Fault-free, the durable counter is disarmed: no retry timers, a
     sequential store pipeline — the space stays small and every
     interleaving must satisfy every property, the WAL monitor's
     included. *)
  let o =
    explore "durable" ~n:2 ~schedule:(Counter.Schedule.Explicit [ 2; 2; 2 ])
  in
  check Alcotest.bool "exhausted" true (is_exhausted o)

let test_durable_crash_recover_bounded () =
  (* Crash the writer and revive it at every adversarial point: bounded
     search (retry timers explode the space), no violation may surface —
     including CounterProgress, checked on executions where the victim
     was revived. *)
  let o =
    explore "durable" ~n:2
      ~schedule:(Counter.Schedule.Explicit [ 2; 2 ])
      ~faults:recover_plan
      ~config:
        {
          Mc.Explore.default_config with
          max_states = 20_000;
          max_depth = 12;
          check_progress = true;
        }
  in
  (match o.verdict with
  | Mc.Explore.Violation_found v ->
      Alcotest.failf "violation under crash/recover: %s" v.Mc.Explore.detail
  | Mc.Explore.Exhausted_ok | Mc.Explore.Budget_exhausted -> ());
  check Alcotest.bool "recover adversary widens the space" true
    (o.stats.Mc.Explore.max_enabled >= 3)

let no_cas_hunt_config =
  { Mc.Explore.default_config with max_states = 300_000; max_depth = 10 }

let test_durable_no_cas_finds_manifest_regression () =
  let v =
    the_violation
      (explore "durable-no-cas" ~n:2
         ~schedule:(Counter.Schedule.Explicit [ 2 ])
         ~faults:recover_plan ~config:no_cas_hunt_config)
  in
  check Alcotest.string "property" "manifest-regressed"
    (Mc.Explore.property_name v.Mc.Explore.property);
  (* The minimal counterexample needs the full adversary: a crash, a
     revival and a reordered stale store write. *)
  let has k = List.exists (fun d -> Mc.Enabled.equal d k) v.Mc.Explore.decisions in
  check Alcotest.bool "crashes the writer" true (has (Mc.Enabled.Crash 1));
  check Alcotest.bool "revives the writer" true (has (Mc.Enabled.Recover 1))

let test_durable_cas_survives_no_cas_hunt () =
  (* Same cadence, same adversary, same budget as the hunt above — with
     CAS the stale manifest write bounces off and nothing is found. *)
  let o =
    Mc.Explore.check ~faults:recover_plan ~config:no_cas_hunt_config
      durable_cas_tight ~n:2
      ~schedule:(Counter.Schedule.Explicit [ 2 ])
  in
  match o.Mc.Explore.verdict with
  | Mc.Explore.Violation_found v ->
      Alcotest.failf "CAS failed to protect the manifest: %s"
        v.Mc.Explore.detail
  | Mc.Explore.Exhausted_ok | Mc.Explore.Budget_exhausted -> ()

let test_stored_durable_counterexample () =
  (* Byte-for-byte what the hunt emits today (the comparison `make
     test-mc` performs on the CLI path), and it must still reproduce. *)
  let stored =
    In_channel.with_open_text (data_file "durable_no_cas_n2.mcs")
      In_channel.input_all
  in
  let v =
    the_violation
      (explore "durable-no-cas" ~n:2
         ~schedule:(Counter.Schedule.Explicit [ 2 ])
         ~faults:recover_plan ~config:no_cas_hunt_config)
  in
  let cx =
    Mc.Replay.of_violation ~counter:"durable-no-cas" ~n:2 ~seed:42
      ~schedule:(Counter.Schedule.Explicit [ 2 ])
      ~faults:recover_plan v
  in
  check Alcotest.string "byte-for-byte" stored (Mc.Replay.to_string cx);
  match Mc.Replay.of_string stored with
  | Error e -> Alcotest.failf "stored file unparseable: %s" e
  | Ok stored_cx ->
      check Alcotest.string "stored property" "manifest-regressed"
        stored_cx.Mc.Replay.property;
      check Alcotest.bool "stored file reproduces its violation" true
        (Mc.Replay.reproduces (get "durable-no-cas") stored_cx)

(* ------------------------------------------------------------------ *)
(* Decision tokens *)

let test_token_round_trip () =
  List.iter
    (fun key ->
      match Mc.Enabled.of_token (Mc.Enabled.to_token key) with
      | Ok key' -> check Alcotest.bool "round trip" true (Mc.Enabled.equal key key')
      | Error e -> Alcotest.failf "token failed: %s" e)
    [ Mc.Enabled.Link (1, 2); Mc.Enabled.Link (12, 7); Mc.Enabled.Timer;
      Mc.Enabled.Crash 3; Mc.Enabled.Linkn (1, 2, 3);
      Mc.Enabled.Linkn (12, 7, 0); Mc.Enabled.Recover 2 ]

let test_independence_is_symmetric () =
  let keys =
    [ Mc.Enabled.Link (1, 2); Mc.Enabled.Link (2, 1); Mc.Enabled.Link (3, 4);
      Mc.Enabled.Timer; Mc.Enabled.Crash 1; Mc.Enabled.Crash 4 ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.bool "symmetric"
            (Mc.Enabled.independent a b)
            (Mc.Enabled.independent b a))
        keys)
    keys;
  (* Spot checks of the receiver-locality relation. *)
  check Alcotest.bool "disjoint links commute" true
    (Mc.Enabled.independent (Mc.Enabled.Link (1, 2)) (Mc.Enabled.Link (3, 4)));
  check Alcotest.bool "same destination conflicts" false
    (Mc.Enabled.independent (Mc.Enabled.Link (1, 2)) (Mc.Enabled.Link (3, 2)));
  check Alcotest.bool "delivery to a sender conflicts" false
    (Mc.Enabled.independent (Mc.Enabled.Link (1, 2)) (Mc.Enabled.Link (2, 3)));
  check Alcotest.bool "timer conflicts with everything" false
    (Mc.Enabled.independent Mc.Enabled.Timer (Mc.Enabled.Link (3, 4)));
  check Alcotest.bool "crash commutes with unrelated link" true
    (Mc.Enabled.independent (Mc.Enabled.Crash 4) (Mc.Enabled.Link (1, 2)));
  check Alcotest.bool "two messages on one unordered link conflict" false
    (Mc.Enabled.independent
       (Mc.Enabled.Linkn (1, 3, 0))
       (Mc.Enabled.Linkn (1, 3, 4)));
  check Alcotest.bool "unordered deliveries on disjoint links commute" true
    (Mc.Enabled.independent
       (Mc.Enabled.Linkn (1, 3, 0))
       (Mc.Enabled.Linkn (4, 5, 2)));
  check Alcotest.bool "crash and revival of one victim conflict" false
    (Mc.Enabled.independent (Mc.Enabled.Crash 1) (Mc.Enabled.Recover 1));
  check Alcotest.bool "revival commutes with an unrelated link" true
    (Mc.Enabled.independent (Mc.Enabled.Recover 4) (Mc.Enabled.Linkn (1, 3, 0)))

let () =
  Alcotest.run "mc"
    [
      ( "exhaustive",
        [
          Alcotest.test_case "central 2..5" `Quick test_central_exhaustive;
          Alcotest.test_case "simple counters" `Quick
            test_simple_counters_exhaustive;
          Alcotest.test_case "retire-tree 3 ops" `Quick
            test_retire_tree_exhaustive_small;
          Alcotest.test_case "quorum 2 ops" `Quick test_quorum_exhaustive_small;
          Alcotest.test_case "one processor, no bound" `Quick
            test_single_processor_no_bound;
        ] );
      ( "broken",
        [
          Alcotest.test_case "amnesiac, zero decisions" `Quick
            test_amnesiac_violation_no_decisions;
          Alcotest.test_case "race-reply invisible to default order" `Quick
            test_race_reply_needs_adversarial_order;
          Alcotest.test_case "race-reply replays" `Quick
            test_race_reply_violation_replays;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "round trip" `Quick test_counterexample_round_trip;
          Alcotest.test_case "stored file canonical" `Quick
            test_stored_counterexample_is_canonical;
          Alcotest.test_case "garbage rejected" `Quick
            test_counterexample_rejects_garbage;
          Alcotest.test_case "divergent decisions rejected" `Quick
            test_run_schedule_rejects_divergent;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "modes agree" `Quick test_prune_modes_agree;
          Alcotest.test_case "sleep prunes" `Quick test_sleep_actually_prunes;
          Alcotest.test_case "state budget" `Quick
            test_budget_exhaustion_is_typed;
          Alcotest.test_case "depth cap" `Quick
            test_depth_cap_downgrades_verdict;
        ] );
      ( "faults",
        [
          Alcotest.test_case "central holder crash" `Quick
            test_crash_branching_central;
          Alcotest.test_case "quorum crash" `Quick test_crash_branching_quorum;
          Alcotest.test_case "probabilistic rejected" `Quick
            test_probabilistic_plans_rejected;
        ] );
      ( "stats goldens",
        [
          Alcotest.test_case "plain links" `Quick test_stats_plain_links;
          Alcotest.test_case "timers and the crash sweep" `Quick
            test_stats_timers_and_sweep;
          Alcotest.test_case "unordered store and a revival" `Quick
            test_stats_unordered_and_revival;
          Alcotest.test_case "a Byzantine turn" `Quick
            test_stats_byzantine_turn;
        ] );
      ( "durable",
        [
          Alcotest.test_case "fault-free exhaustive" `Quick
            test_durable_exhaustive_fault_free;
          Alcotest.test_case "crash/recover bounded" `Quick
            test_durable_crash_recover_bounded;
          Alcotest.test_case "no-cas manifest regression" `Quick
            test_durable_no_cas_finds_manifest_regression;
          Alcotest.test_case "cas survives the same hunt" `Quick
            test_durable_cas_survives_no_cas_hunt;
          Alcotest.test_case "stored counterexample canonical" `Quick
            test_stored_durable_counterexample;
        ] );
      ( "tokens",
        [
          Alcotest.test_case "round trip" `Quick test_token_round_trip;
          Alcotest.test_case "independence" `Quick
            test_independence_is_symmetric;
        ] );
    ]
