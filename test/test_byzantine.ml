(* Adversarial battery for the Byzantine fault layer and the phase-king
   synchronous-counting baseline (docs/FAULTS.md).

   Structure:
   - grammar: byz/byzval/byzeq round-trips, canonical clause order,
     plan-static validation rejections, qcheck string-level fixpoints
     for plans carrying Byzantine clauses;
   - rewrite semantics: Fault.apply_rule unit truths and network-level
     delivery — an equivocating sender shows receiver-id-parity-split
     values, corruption charges land in Metrics, a rule-less byz clause
     turns the marker without touching payloads;
   - the f < n/3 contract: sync-count completes every operation with
     exact values when b = (n - 1) / 3 kings are turned (all rules,
     equivocation included), across n = 4 .. 13;
   - over-threshold witnesses: concrete b > f plans whose agreement
     violation is deterministic, at n = 4 and n = 7 — the boundary is
     real, not slack;
   - the sync-no-threshold control: split by a single equivocating last
     king at b = 1 <= f, proving the round-3 threshold guard (the only
     difference between the two counters) is load-bearing;
   - Fault.none discipline: a sync-count run with the empty plan is
     bit-identical to one with no plan at all, and the guard-off control
     is bit-identical to sync-count when no one lies. *)

let check = Alcotest.check

let plan s =
  match Sim.Fault.of_string s with
  | Ok f -> f
  | Error e -> Alcotest.failf "plan %S rejected: %s" s e

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Grammar *)

let test_byz_round_trips () =
  List.iter
    (fun s ->
      check Alcotest.string
        (Printf.sprintf "canonical %S" s)
        s
        (Sim.Fault.to_string (plan s)))
    [
      "byz:3@1.5";
      "byz:2@#10";
      "byz:3@1.5/byzval:3:replay-stale";
      "byz:3@0/byzval:3:off-by-2/byzeq:3";
      "byz:4@0/byzval:4:off-by--3";
      "byz:7@#25/byzval:7:max-int";
      "byz:1@0/byz:2@#5/byzval:1:max-int/byzval:2:off-by-7/byzeq:2";
      "crash:1@2/drop:0.1/byz:3@1/byzval:3:max-int";
      "crash:3@1.5/recover:3@9/part:1-4@2,10/byz:5@3/byzval:5:replay-stale/byzeq:5";
    ]

let test_byz_parse_structure () =
  let f = plan "byz:1@0/byz:2@#5/byzval:1:max-int/byzval:2:off-by-7/byzeq:2" in
  check Alcotest.bool "byz_active" true (Sim.Fault.byz_active f);
  check Alcotest.int "byz_count" 2 (Sim.Fault.byz_count f);
  check
    Alcotest.(list int)
    "byzantine_processors ascending" [ 1; 2 ]
    (Sim.Fault.byzantine_processors f);
  check Alcotest.bool "rule of 1" true
    (Sim.Fault.byz_rule_of f 1 = Some Sim.Fault.Max_int);
  check Alcotest.bool "rule of 2" true
    (Sim.Fault.byz_rule_of f 2 = Some (Sim.Fault.Off_by 7));
  check Alcotest.bool "rule of 3 absent" true
    (Sim.Fault.byz_rule_of f 3 = None);
  check Alcotest.bool "2 equivocates" true (Sim.Fault.equivocates f 2);
  check Alcotest.bool "1 does not" false (Sim.Fault.equivocates f 1);
  (* byz clauses do not count as crashes: the two victim populations are
     disjoint dimensions of a plan. *)
  check Alcotest.int "no crashes" 0 (Sim.Fault.crash_count f);
  check Alcotest.bool "not is_none" false (Sim.Fault.is_none f)

let test_byz_rejects () =
  List.iter
    (fun s ->
      match Sim.Fault.of_string s with
      | Ok _ -> Alcotest.failf "plan %S should have been rejected" s
      | Error _ -> ())
    [
      "byz:0@1";
      "byz:3";
      "byz:3@-2";
      "byz:3@1/byz:3@2";
      "byzval:3:off-by-1";
      "byz:3@1/byzval:4:off-by-1";
      "byz:3@1/byzval:3:off-by-0";
      "byz:3@1/byzval:3:bogus";
      "byz:3@1/byzval:3:max-int/byzval:3:replay-stale";
      "byzeq:3";
      "byz:3@1/byzeq:3";
      "byz:3@1/byzval:3:max-int/byzeq:4";
      "byz:3@1/byzval:3:max-int/byzeq:3/byzeq:3";
    ]

(* The validation errors name the broken clause — a plan author fixing a
   typo should not have to bisect the string. *)
let test_byz_reject_messages () =
  let err s =
    match Sim.Fault.of_string s with
    | Ok _ -> Alcotest.failf "plan %S should have been rejected" s
    | Error e -> e
  in
  check Alcotest.bool "byzval without byz names the processor" true
    (contains ~sub:"byzval:4" (err "byz:3@1/byzval:4:off-by-1"));
  check Alcotest.bool "off-by-0 names the offset" true
    (contains ~sub:"non-zero" (err "byz:3@1/byzval:3:off-by-0"));
  check Alcotest.bool "byzeq without rule says so" true
    (contains ~sub:"byzval" (err "byz:3@1/byzeq:3"))

(* ------------------------------------------------------------------ *)
(* QCheck: string-level round-trip fixpoints for plans with Byzantine
   clauses (the crash/drop/store dimensions have theirs in
   test_fault.ml). Victims are distinct by construction; rules and
   equivocation are drawn per victim, byzeq only where a rule exists —
   mirroring what validate admits. *)

let gen_byz_plan =
  let open QCheck.Gen in
  let gen_trigger =
    oneof
      [
        map (fun t -> Sim.Fault.At (float_of_int t /. 4.)) (int_bound 400);
        map (fun d -> Sim.Fault.After d) (int_bound 10_000);
      ]
  in
  let gen_rule =
    oneof
      [
        return Sim.Fault.Replay_stale;
        map
          (fun k -> Sim.Fault.Off_by (if k >= 0 then k + 1 else k))
          (int_range (-16) 16);
        return Sim.Fault.Max_int;
      ]
  in
  int_range 1 5 >>= fun count ->
  (* distinct victim ids: a permutation prefix of 1..9 *)
  let rec pick acc k st =
    if k = 0 then acc
    else
      let p = int_range 1 9 st in
      if List.mem p acc then pick acc k st else pick (p :: acc) (k - 1) st
  in
  (fun st -> pick [] count st) >>= fun victims ->
  flatten_l
    (List.map
       (fun p ->
         gen_trigger >>= fun trigger ->
         bool >>= fun has_rule ->
         (if has_rule then map (fun r -> Some r) gen_rule else return None)
         >>= fun rule ->
         bool >>= fun eq ->
         return
           ( { Sim.Fault.processor = p; trigger },
             Option.map (fun r -> (p, r)) rule,
             (* equivocation needs a rewrite rule to vary *)
             if eq && rule <> None then Some p else None ))
       victims)
  >>= fun cells ->
  return
    {
      Sim.Fault.none with
      Sim.Fault.byz = List.map (fun (b, _, _) -> b) cells;
      byz_rules = List.filter_map (fun (_, r, _) -> r) cells;
      byz_equiv = List.filter_map (fun (_, _, e) -> e) cells;
    }

let qcheck_byz_round_trip =
  QCheck.Test.make ~name:"byz plans round-trip to_string" ~count:500
    (QCheck.make ~print:Sim.Fault.to_string gen_byz_plan)
    (fun f ->
      let s = Sim.Fault.to_string f in
      match Sim.Fault.of_string s with
      | Error e -> QCheck.Test.fail_reportf "of_string %S failed: %s" s e
      | Ok f' -> String.equal s (Sim.Fault.to_string f'))

(* ------------------------------------------------------------------ *)
(* Rewrite semantics *)

let test_apply_rule () =
  let apply = Sim.Fault.apply_rule in
  check Alcotest.int "replay-stale" 0
    (apply ~rule:Sim.Fault.Replay_stale ~equivocate:false ~dst:2 41);
  check Alcotest.int "off-by adds" 48
    (apply ~rule:(Sim.Fault.Off_by 7) ~equivocate:false ~dst:2 41);
  check Alcotest.int "off-by negative" 38
    (apply ~rule:(Sim.Fault.Off_by (-3)) ~equivocate:false ~dst:2 41);
  check Alcotest.int "max-int sentinel" Sim.Fault.byz_sentinel
    (apply ~rule:Sim.Fault.Max_int ~equivocate:false ~dst:2 41);
  (* Equivocation: odd receivers see the other face. *)
  check Alcotest.int "eq replay, odd dst sees truth" 41
    (apply ~rule:Sim.Fault.Replay_stale ~equivocate:true ~dst:3 41);
  check Alcotest.int "eq replay, even dst sees 0" 0
    (apply ~rule:Sim.Fault.Replay_stale ~equivocate:true ~dst:4 41);
  check Alcotest.int "eq off-by, odd dst subtracts" 34
    (apply ~rule:(Sim.Fault.Off_by 7) ~equivocate:true ~dst:3 41);
  check Alcotest.int "eq off-by, even dst adds" 48
    (apply ~rule:(Sim.Fault.Off_by 7) ~equivocate:true ~dst:4 41);
  check Alcotest.int "eq max-int, odd dst sees 0" 0
    (apply ~rule:Sim.Fault.Max_int ~equivocate:true ~dst:3 41);
  check Alcotest.int "eq max-int, even dst sees sentinel"
    Sim.Fault.byz_sentinel
    (apply ~rule:Sim.Fault.Max_int ~equivocate:true ~dst:4 41)

(* A star broadcast from a turned processor: the corrupt hook rewrites
   the integer payload per receiver, charges Metrics.corruptions, and
   delivery order stays deterministic. *)
let corrupt_int ~rule ~equivocate ~src:_ ~dst v =
  let v' = Sim.Fault.apply_rule ~rule ~equivocate ~dst v in
  if v' = v then v else v'

let test_equivocation_delivery () =
  let n = 5 in
  let faults = plan "byz:1@0/byzval:1:off-by-10/byzeq:1" in
  let net = Sim.Network.create ~faults ~corrupt:corrupt_int ~n () in
  let got = Array.make (n + 1) 0 in
  Sim.Network.set_handler net (fun ~self ~src:_ v -> got.(self) <- v);
  check Alcotest.bool "turned at create (At 0)" true
    (Sim.Network.byzantine net 1);
  for dst = 2 to n do
    Sim.Network.send net ~src:1 ~dst 100
  done;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "even receiver sees v+10" 110 got.(2);
  check Alcotest.int "odd receiver sees v-10" 90 got.(3);
  check Alcotest.int "even receiver sees v+10" 110 got.(4);
  check Alcotest.int "odd receiver sees v-10" 90 got.(5);
  let m = Sim.Network.metrics net in
  check Alcotest.int "four corruptions charged" 4
    (Sim.Metrics.corruptions m);
  check Alcotest.int "one Byzantine turn" 1 (Sim.Metrics.byzantine m)

(* Honest senders pass through the hook untouched, and a byz clause
   without a byzval rule turns the marker but rewrites nothing — the
   "detection overhead" configuration. *)
let test_no_rule_sends_honest () =
  let faults = plan "byz:1@0" in
  let net = Sim.Network.create ~faults ~corrupt:corrupt_int ~n:3 () in
  let got = Array.make 4 (-1) in
  Sim.Network.set_handler net (fun ~self ~src:_ v -> got.(self) <- v);
  Sim.Network.send net ~src:1 ~dst:2 100;
  Sim.Network.send net ~src:3 ~dst:1 200;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.int "turned sender delivered honestly" 100 got.(2);
  check Alcotest.int "honest sender unaffected" 200 got.(1);
  let m = Sim.Network.metrics net in
  check Alcotest.int "no corruption charged" 0 (Sim.Metrics.corruptions m);
  check Alcotest.int "turn still counted" 1 (Sim.Metrics.byzantine m)

(* A byzval plan on a network without a corrupt hook is a typed refusal,
   not a silently-honest run. *)
let test_byzval_needs_hook () =
  let faults = plan "byz:1@0/byzval:1:max-int" in
  match Sim.Network.create ~faults ~n:3 () with
  | (_ : int Sim.Network.t) ->
      Alcotest.fail "byzval plan without corrupt hook accepted"
  | exception Invalid_argument _ -> ()

(* The delivery-count trigger byz:P@#D turns the victim mid-run: sends
   before the horizon are honest, sends after it are rewritten. *)
let test_after_trigger_turns_mid_run () =
  let faults = plan "byz:1@#2/byzval:1:off-by-5" in
  let net = Sim.Network.create ~faults ~corrupt:corrupt_int ~n:3 () in
  let log = ref [] in
  Sim.Network.set_handler net (fun ~self ~src:_ v ->
      log := (self, v) :: !log;
      (* after the first two deliveries the sender is turned *)
      if List.length !log < 4 && self = 2 then
        Sim.Network.send net ~src:1 ~dst:3 (v + 1));
  Sim.Network.send net ~src:1 ~dst:2 10;
  Sim.Network.send net ~src:1 ~dst:2 20;
  ignore (Sim.Network.run_to_quiescence net);
  check Alcotest.bool "not yet turned at create" true
    (List.mem (2, 10) !log);
  check Alcotest.bool "turned after horizon" true
    (Sim.Network.byzantine net 1);
  check Alcotest.bool "post-horizon send rewritten" true
    (List.exists (fun (p, v) -> p = 3 && v >= 16) !log)

(* ------------------------------------------------------------------ *)
(* The f < n/3 contract under dcount chaos --byz's plan
   (Core.Sync_counter.king_plan): the kings, last king first (the
   strongest seats), rules cycling off-by-7 / max-int / replay-stale,
   every second victim equivocating. *)

let run_ops ~inc_result ~n ~ops =
  let values = ref [] and stalls = ref [] in
  let origin = ref 0 in
  for _ = 1 to ops do
    origin := (!origin mod n) + 1;
    match inc_result ~origin:!origin with
    | Counter.Counter_intf.Completed v -> values := v :: !values
    | Counter.Counter_intf.Stalled reason -> stalls := reason :: !stalls
  done;
  (List.rev !values, List.rev !stalls)

let test_completion_matrix () =
  List.iter
    (fun n ->
      let f = (n - 1) / 3 in
      let module C = Core.Sync_counter in
      let c = C.create ~faults:(C.king_plan ~n ~b:f) ~n ~seed:42 () in
      check Alcotest.int
        (Printf.sprintf "n=%d: resilience" n)
        f (C.resilience c);
      check Alcotest.int
        (Printf.sprintf "n=%d: phases" n)
        (f + 1) (C.phases c);
      let ops = 2 * n in
      let values, stalls = run_ops ~inc_result:(C.inc_result c) ~n ~ops in
      check Alcotest.int
        (Printf.sprintf "n=%d b=f=%d: all ops complete" n f)
        ops (List.length values);
      check Alcotest.(list string) (Printf.sprintf "n=%d: no stalls" n) []
        stalls;
      (* Values are exact: the turned kings could not skew the count. *)
      List.iteri
        (fun i v ->
          check Alcotest.int (Printf.sprintf "n=%d: value %d" n i) i v)
        values;
      check Alcotest.int
        (Printf.sprintf "n=%d: completed count" n)
        ops (C.value c))
    [ 4; 7; 10; 13 ]

(* Per-rule isolation at n = 7, b = f = 2: each rule survives alone,
   equivocating and not. *)
let test_per_rule_matrix () =
  let n = 7 and ops = 7 in
  List.iter
    (fun (rule, eq) ->
      let faults =
        {
          Sim.Fault.none with
          Sim.Fault.byz =
            [
              { Sim.Fault.processor = 3; trigger = Sim.Fault.At 0. };
              { Sim.Fault.processor = 2; trigger = Sim.Fault.At 0. };
            ];
          byz_rules = [ (3, rule); (2, rule) ];
          byz_equiv = (if eq then [ 3; 2 ] else []);
        }
      in
      let module C = Core.Sync_counter in
      let c = C.create ~faults ~n ~seed:7 () in
      let values, stalls = run_ops ~inc_result:(C.inc_result c) ~n ~ops in
      let label =
        Printf.sprintf "rule=%s eq=%b"
          (match rule with
          | Sim.Fault.Replay_stale -> "replay-stale"
          | Sim.Fault.Off_by k -> Printf.sprintf "off-by-%d" k
          | Sim.Fault.Max_int -> "max-int")
          eq
      in
      check Alcotest.int (label ^ ": all complete") ops (List.length values);
      check Alcotest.(list string) (label ^ ": no stalls") [] stalls)
    [
      (Sim.Fault.Replay_stale, false);
      (Sim.Fault.Replay_stale, true);
      (Sim.Fault.Off_by 9, false);
      (Sim.Fault.Off_by 9, true);
      (Sim.Fault.Max_int, false);
      (Sim.Fault.Max_int, true);
    ]

(* ------------------------------------------------------------------ *)
(* Over-threshold witnesses: concrete b > f plans that deterministically
   split the correct replicas — the n > 3f hypothesis is tight here, not
   slack. Both kings equivocating with distinct offsets (n = 4) and all
   three kings shifting with the last equivocating (n = 7) defeat the
   round-2 threshold in every phase, so the final king's split sticks. *)

let expect_agreement_violation ~n ~plan_s =
  let module C = Core.Sync_counter in
  let c = C.create ~faults:(plan plan_s) ~n ~seed:42 () in
  let values, stalls = run_ops ~inc_result:(C.inc_result c) ~n ~ops:n in
  check Alcotest.bool
    (Printf.sprintf "n=%d: some operation stalls" n)
    true (stalls <> []);
  ignore values;
  List.iter
    (fun reason ->
      check Alcotest.bool
        (Printf.sprintf "n=%d: stall is the agreement oracle (%s)" n reason)
        true
        (contains ~sub:"agreement" reason))
    stalls

let test_over_threshold_witnesses () =
  expect_agreement_violation ~n:4
    ~plan_s:"byz:1@0/byzval:1:off-by-3/byzeq:1/byz:2@0/byzval:2:off-by-5/byzeq:2";
  expect_agreement_violation ~n:7
    ~plan_s:
      "byz:1@0/byzval:1:off-by-7/byz:2@0/byzval:2:off-by-7/byz:3@0/byzval:3:off-by-7/byzeq:3"

(* ------------------------------------------------------------------ *)
(* The sync-no-threshold control: one equivocating last king at
   b = 1 <= f splits it — the guard is the only thing standing between
   the protocol and the oracle. The same plan leaves sync-count exact. *)

let test_control_splits_under_guarded_budget () =
  let n = 7 in
  let last_king_plan = "byz:3@0/byzval:3:off-by-1/byzeq:3" in
  let module B = Baselines.Sync_no_threshold in
  let b = B.create ~faults:(plan last_king_plan) ~n ~seed:42 () in
  let _, stalls = run_ops ~inc_result:(B.inc_result b) ~n ~ops:n in
  check Alcotest.bool "control stalls" true (stalls <> []);
  check Alcotest.bool "control stall is agreement" true
    (List.for_all (contains ~sub:"agreement") stalls);
  let module C = Core.Sync_counter in
  let c = C.create ~faults:(plan last_king_plan) ~n ~seed:42 () in
  let values, stalls = run_ops ~inc_result:(C.inc_result c) ~n ~ops:n in
  check Alcotest.(list string) "guarded counter clean" [] stalls;
  check Alcotest.int "guarded counter exact" n (List.length values)

(* ------------------------------------------------------------------ *)
(* Fault.none discipline: the Byzantine machinery must cost nothing and
   change nothing when no plan arms it. (The pinned golden numbers live
   in test_determinism.ml.) *)

let sync_metrics ?faults ~guard ~n ~seed () =
  let module C = Core.Sync_counter in
  let c = C.create_with ?faults ~guard ~n ~seed () in
  for o = 1 to n do
    ignore (C.inc c ~origin:o)
  done;
  C.metrics c

let test_fault_none_bit_identical () =
  let n = 7 and seed = 42 in
  let base = sync_metrics ~guard:true ~n ~seed () in
  let with_none =
    sync_metrics ~faults:Sim.Fault.none ~guard:true ~n ~seed ()
  in
  check Alcotest.int "Fault.none checksum identical"
    (Sim.Metrics.checksum base)
    (Sim.Metrics.checksum with_none);
  Alcotest.(check (array int))
    "Fault.none load vector identical"
    (Sim.Metrics.load_array base)
    (Sim.Metrics.load_array with_none);
  (* The guard only matters when someone lies: fault-free, the control
     is message-for-message the same protocol. *)
  let unguarded = sync_metrics ~guard:false ~n ~seed () in
  check Alcotest.int "guard-off checksum identical fault-free"
    (Sim.Metrics.checksum base)
    (Sim.Metrics.checksum unguarded)

let () =
  Alcotest.run "byzantine"
    [
      ( "grammar",
        [
          Alcotest.test_case "byz round-trips" `Quick test_byz_round_trips;
          Alcotest.test_case "byz structure" `Quick test_byz_parse_structure;
          Alcotest.test_case "rejects malformed" `Quick test_byz_rejects;
          Alcotest.test_case "rejection messages name clauses" `Quick
            test_byz_reject_messages;
          QCheck_alcotest.to_alcotest qcheck_byz_round_trip;
        ] );
      ( "rewrite semantics",
        [
          Alcotest.test_case "apply_rule truths" `Quick test_apply_rule;
          Alcotest.test_case "equivocation splits by parity" `Quick
            test_equivocation_delivery;
          Alcotest.test_case "rule-less byz sends honest" `Quick
            test_no_rule_sends_honest;
          Alcotest.test_case "byzval needs the hook" `Quick
            test_byzval_needs_hook;
          Alcotest.test_case "delivery-count trigger turns mid-run" `Quick
            test_after_trigger_turns_mid_run;
        ] );
      ( "f < n/3",
        [
          Alcotest.test_case "completion matrix n=4..13, b=f kings" `Quick
            test_completion_matrix;
          Alcotest.test_case "per-rule matrix at n=7" `Quick
            test_per_rule_matrix;
        ] );
      ( "threshold is tight",
        [
          Alcotest.test_case "b>f witnesses violate agreement" `Quick
            test_over_threshold_witnesses;
          Alcotest.test_case "control splits where the guard holds" `Quick
            test_control_splits_under_guarded_budget;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "Fault.none bit-identical" `Quick
            test_fault_none_bit_identical;
        ] );
    ]
