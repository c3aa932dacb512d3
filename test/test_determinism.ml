(* Golden determinism regression for the event-engine rewrite.

   The golden values below were produced by the ORIGINAL boxed binary-heap
   engine (the pre-rewrite seed of this repository) running the paper's
   retirement counter at n = 81 with a seed-shuffled each-once order. The
   structure-of-arrays 4-ary heap must deliver events in exactly the same
   order — the (prio, seq) contract is a total order, so any conforming
   implementation reproduces these runs bit-identically. If one of these
   checks ever fails, an engine change silently altered delivery order and
   every seeded experiment in EXPERIMENTS.md is invalidated.

   The checksum is Sim.Metrics.checksum: an FNV-1a fingerprint of the full
   per-processor (sent, received) load vector including overflow hires. *)

let check = Alcotest.check

type golden = {
  name : string;
  seed : int;
  delay : Sim.Delay.t;
  total_messages : int;
  total_load : int;
  bottleneck : int * int;
  overflow : int;
  checksum : int;
}

let goldens =
  [
    {
      name = "constant delay";
      seed = 42;
      delay = Sim.Delay.Constant 1.0;
      total_messages = 1627;
      total_load = 3254;
      bottleneck = (7, 44);
      overflow = 76;
      checksum = 1117116884259558886;
    };
    {
      name = "exponential delay";
      seed = 7;
      delay = Sim.Delay.Exponential 1.0;
      total_messages = 1636;
      total_load = 3272;
      bottleneck = (20, 44);
      overflow = 79;
      checksum = 2181917791483362687;
    };
    {
      name = "adversarial jitter";
      seed = 1;
      delay = Sim.Delay.Adversarial_jitter 0.5;
      total_messages = 1777;
      total_load = 3554;
      bottleneck = (25, 43);
      overflow = 97;
      checksum = 3112887691210187096;
    };
  ]

let run_metrics ?faults g =
  let module R = Core.Retire_counter in
  let n = 81 in
  let c = R.create ?faults ~n ~seed:g.seed ~delay:g.delay () in
  let order = Sim.Rng.permutation (Sim.Rng.create ~seed:g.seed) n in
  Array.iteri
    (fun i p ->
      let v = R.inc c ~origin:(p + 1) in
      check Alcotest.int (Printf.sprintf "%s: value %d" g.name i) i v)
    order;
  R.metrics c

let test_golden g () =
  let m = run_metrics g in
  check Alcotest.int "total messages" g.total_messages
    (Sim.Metrics.total_messages m);
  check Alcotest.int "total load" g.total_load (Sim.Metrics.total_load m);
  check
    Alcotest.(pair int int)
    "bottleneck" g.bottleneck (Sim.Metrics.bottleneck m);
  check Alcotest.int "overflow hires" g.overflow
    (Sim.Metrics.overflow_processors m);
  check Alcotest.int "load-vector checksum" g.checksum (Sim.Metrics.checksum m)

(* Same-process reproducibility: two identical runs must agree exactly —
   catches hidden global state (hash seeds, shared RNGs) leaking into the
   engine. *)
let test_repeat_runs_identical () =
  let g = List.hd goldens in
  let a = run_metrics g and b = run_metrics g in
  check Alcotest.int "checksums agree" (Sim.Metrics.checksum a)
    (Sim.Metrics.checksum b);
  Alcotest.(check (array int))
    "load vectors agree" (Sim.Metrics.load_array a)
    (Sim.Metrics.load_array b)

(* The fault layer's zero-overhead contract: an explicit empty plan makes
   no Rng draw and mixes nothing into the checksum, so every golden must
   reproduce bit-identically with [~faults:Sim.Fault.none]. *)
let test_fault_none_bit_identical () =
  List.iter
    (fun g ->
      let m = run_metrics ~faults:Sim.Fault.none g in
      check Alcotest.int
        (Printf.sprintf "%s: checksum under Fault.none" g.name)
        g.checksum (Sim.Metrics.checksum m))
    goldens

(* Fault runs are seeded like everything else: the same plan twice must
   reproduce the same load vector exactly. *)
let test_fault_plan_reproducible () =
  let faults =
    match Sim.Fault.of_string "drop:0.02/dup:0.01/part:1-9@3,20" with
    | Ok f -> f
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  let run () =
    let module R = Core.Retire_counter in
    let c = R.create ~faults ~n:81 ~seed:42 () in
    let order = Sim.Rng.permutation (Sim.Rng.create ~seed:42) 81 in
    Array.iter
      (fun p -> ignore (R.inc_result c ~origin:(p + 1)))
      order;
    R.metrics c
  in
  let a = run () and b = run () in
  check Alcotest.int "fault-run checksums agree" (Sim.Metrics.checksum a)
    (Sim.Metrics.checksum b);
  check Alcotest.int "fault counters agree" (Sim.Metrics.dropped a)
    (Sim.Metrics.dropped b);
  (* The plan above genuinely injects faults under this seed — otherwise
     this test would silently degenerate into the Fault.none case. *)
  check Alcotest.bool "plan actually fired" true (Sim.Metrics.dropped a > 0)

(* Fault-plan goldens: a deterministic crash/recover plan and a
   probabilistic drop/dup/partition plan at n = 81, seed 42. Faults touch
   the Rng draw order (at send time) and the crash trigger order (at pop
   time), so these pin the fault layer's schedule across commits the way
   [goldens] pin the fault-free engine. *)
let fault_plan_goldens =
  (* (plan, load-vector checksum, dropped, recoveries) *)
  [
    ("crash:3@4/recover:3@40", 3311741383050510991, 13, 1);
    ("drop:0.02/dup:0.01/part:1-9@3,20", 238689233693110146, 43, 0);
  ]

let test_fault_plan_goldens () =
  (* Stalls are expected under a fault plan, so this runner goes through
     inc_result instead of run_metrics's raising inc. *)
  let run_faulted faults =
    let module R = Core.Retire_counter in
    let c = R.create ~faults ~n:81 ~seed:42 () in
    let order = Sim.Rng.permutation (Sim.Rng.create ~seed:42) 81 in
    Array.iter (fun p -> ignore (R.inc_result c ~origin:(p + 1))) order;
    R.metrics c
  in
  List.iter
    (fun (spec, checksum, dropped, recoveries) ->
      let faults =
        match Sim.Fault.of_string spec with
        | Ok f -> f
        | Error e -> Alcotest.failf "bad plan: %s" e
      in
      let m = run_faulted faults in
      check Alcotest.int (spec ^ ": checksum") checksum (Sim.Metrics.checksum m);
      check Alcotest.int (spec ^ ": drops") dropped (Sim.Metrics.dropped m);
      check Alcotest.int (spec ^ ": recoveries") recoveries
        (Sim.Metrics.recoveries m);
      (* the plan must actually fire, or the golden degenerates into the
         Fault.none case *)
      check Alcotest.bool (spec ^ ": plan bites") true
        (Sim.Metrics.dropped m > 0 || Sim.Metrics.crashes m > 0))
    fault_plan_goldens

(* The durable WAL-backed counter under Fault.none is disarmed: no retry
   timers, no Rng draws, a sequential store pipeline — so its runs must
   be bit-identical, store traffic included (the store is processor n+1
   in the counter's own network). The golden pins the full load vector; a change to the WAL record flow (extra retry, reordered
   snapshot, different chunk cadence) moves it. *)
let durable_golden =
  (* n = 16, seed 42, seed-shuffled each-once order. *)
  (72, 144, (1, 72), 1938892630621606450)

let run_durable_metrics () =
  let module D = Core.Durable_counter in
  let n = 16 in
  let c = D.create ~faults:Sim.Fault.none ~n ~seed:42 () in
  let order = Sim.Rng.permutation (Sim.Rng.create ~seed:42) n in
  Array.iteri
    (fun i p ->
      let v = D.inc c ~origin:(p + 1) in
      check Alcotest.int (Printf.sprintf "durable: value %d" i) i v)
    order;
  (* [value] audits the store offline: the durable truth must match the
     count of completed operations exactly. *)
  check Alcotest.int "durable: audited count" n (D.value c);
  D.metrics c

let test_durable_golden () =
  let msgs, load, bottleneck, checksum = durable_golden in
  let m = run_durable_metrics () in
  check Alcotest.int "total messages" msgs (Sim.Metrics.total_messages m);
  check Alcotest.int "total load" load (Sim.Metrics.total_load m);
  check
    Alcotest.(pair int int)
    "bottleneck" bottleneck (Sim.Metrics.bottleneck m);
  check Alcotest.int "load-vector checksum" checksum (Sim.Metrics.checksum m)

(* The phase-king Byzantine counter under Fault.none must be as
   deterministic as everything else: the corruption path is never
   consulted (zero Rng draws, nothing mixed into the checksum), so the
   pinned golden must reproduce with and without the empty plan. The
   golden pins the full load vector of an
   all-to-all protocol — any change to the three-round phase cadence
   (an extra vote, a reordered king broadcast) moves it. *)
let sync_golden =
  (* n = 7, seed 42, seed-shuffled each-once order. *)
  (1974, 3948, (1, 584), 1735325893595757405)

let run_sync_metrics ?faults () =
  let module S = Core.Sync_counter in
  let n = 7 in
  let c = S.create ?faults ~n ~seed:42 () in
  let order = Sim.Rng.permutation (Sim.Rng.create ~seed:42) n in
  Array.iteri
    (fun i p ->
      let v = S.inc c ~origin:(p + 1) in
      check Alcotest.int (Printf.sprintf "sync: value %d" i) i v)
    order;
  S.metrics c

let test_sync_golden () =
  let msgs, load, bottleneck, checksum = sync_golden in
  let m = run_sync_metrics () in
  check Alcotest.int "total messages" msgs (Sim.Metrics.total_messages m);
  check Alcotest.int "total load" load (Sim.Metrics.total_load m);
  check
    Alcotest.(pair int int)
    "bottleneck" bottleneck (Sim.Metrics.bottleneck m);
  check Alcotest.int "load-vector checksum" checksum (Sim.Metrics.checksum m);
  let m' = run_sync_metrics ~faults:Sim.Fault.none () in
  check Alcotest.int "checksum under Fault.none" checksum
    (Sim.Metrics.checksum m')

(* The driver's shuffled schedule must also be reproducible end-to-end. *)
let test_driver_reports_reproducible () =
  let run () =
    Counter.Driver.run ~seed:1234 Baselines.Registry.retire_tree ~n:81
      ~schedule:Counter.Schedule.Each_once_shuffled
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "correct" true
    (a.Counter.Driver.values_exact && a.Counter.Driver.sequentially_ordered);
  check Alcotest.int "bottleneck load" a.Counter.Driver.bottleneck_load
    b.Counter.Driver.bottleneck_load;
  check Alcotest.int "bottleneck proc" a.Counter.Driver.bottleneck_proc
    b.Counter.Driver.bottleneck_proc;
  check Alcotest.int "messages" a.Counter.Driver.total_messages
    b.Counter.Driver.total_messages

(* Every counter's full load vector, pinned before the counters moved onto
   one generic host: a change that moves messages only on non-bottleneck
   processors still changes [Sim.Metrics.checksum]. Outcomes (values and
   stall reasons, in op order) and open-loop completions are pinned by an
   MD5 digest of their rendering. *)
let digest_outcomes outcomes =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (Format.asprintf "%a" Counter.Counter_intf.pp_outcome)
             outcomes)))

let run_closed ?faults ?(delay = Sim.Delay.Constant 1.0) ?(passes = 1)
    (module C : Counter.Counter_intf.S) ~n =
  let n = C.supported_n n in
  let c = C.create ~seed:42 ~delay ?faults ~n () in
  let rng = Sim.Rng.create ~seed:43 in
  let origins =
    List.concat
      (List.init passes (fun _ ->
           Counter.Schedule.origins Counter.Schedule.Each_once_shuffled rng ~n))
  in
  let outcomes = List.map (fun origin -> C.inc_result c ~origin) origins in
  let m = C.metrics c in
  (Sim.Metrics.checksum m, Sim.Metrics.total_messages m, digest_outcomes outcomes)

(* (name, load-vector checksum, total messages, outcome digest); n = 64
   rounded by [supported_n], n = 7 for the phase-king counters. *)
let closed_goldens =
  [
    ("retire-tree", 4286514196573460161, 1830, "624a24903876bc820a5451fb8484417a");
    ("retire-tree-local", 4286514196573460161, 1830, "624a24903876bc820a5451fb8484417a");
    ("retire-ft", 4286514196573460161, 1830, "624a24903876bc820a5451fb8484417a");
    ("central", 4214963519709149231, 126, "63d309cd95c8df7ba9008378d9a0e53e");
    ("static-tree", 769855527440908532, 405, "624a24903876bc820a5451fb8484417a");
    ("combining", 4398393453372293711, 768, "63d309cd95c8df7ba9008378d9a0e53e");
    ("counting-net", 697896527946910127, 512, "63d309cd95c8df7ba9008378d9a0e53e");
    ("periodic-net", 2216293488602642223, 704, "63d309cd95c8df7ba9008378d9a0e53e");
    ("diffracting", 473682229775901263, 320, "63d309cd95c8df7ba9008378d9a0e53e");
    ("quorum-majority", 2405723489755245039, 8192, "63d309cd95c8df7ba9008378d9a0e53e");
    ("quorum-grid", 3712374676986126319, 3584, "63d309cd95c8df7ba9008378d9a0e53e");
    ("quorum-tree", 1425778383909583857, 3520, "35c043f6fe28765319149cd230f93e73");
    ("quorum-crumbling-wall", 3439658445911845823, 2748, "63d309cd95c8df7ba9008378d9a0e53e");
    ("quorum-projective-plane", 1151153470309594414, 6336, "4e03b3628549d2598b53200d2b89a8c7");
    ("durable", 1007016607147314298, 318, "63d309cd95c8df7ba9008378d9a0e53e");
    ("sync-count", 1735325893595757405, 1974, "763a7168ad411aca2402e8a47849e4f3");
    ("amnesiac", 81985529216486895, 0, "676a54a684883de3605110e8f2771a58");
    ("race-reply", 1462711036353652515, 250, "63d309cd95c8df7ba9008378d9a0e53e");
    ("ft-no-handoff", 4286514196573460161, 1830, "624a24903876bc820a5451fb8484417a");
    ("durable-no-cas", 812959547539872338, 1014, "63d309cd95c8df7ba9008378d9a0e53e");
    ("sync-no-threshold", 1735325893595757405, 1974, "763a7168ad411aca2402e8a47849e4f3");
  ]

let closed_size name =
  if name = "sync-count" || name = "sync-no-threshold" then 7 else 64

let every_counter () =
  Baselines.Registry.all
  @ (Baselines.Registry.sync_count :: Baselines.Registry.broken)

let counter_name (module C : Counter.Counter_intf.S) = C.name

let test_closed_goldens () =
  List.iter
    (fun c ->
      let name = counter_name c in
      let checksum, msgs, outcomes = run_closed c ~n:(closed_size name) in
      match List.find_opt (fun (n, _, _, _) -> n = name) closed_goldens with
      | None -> Alcotest.failf "%s: no golden" name
      | Some (_, checksum', msgs', outcomes') ->
          check Alcotest.int (name ^ ": checksum") checksum' checksum;
          check Alcotest.int (name ^ ": messages") msgs' msgs;
          check Alcotest.string (name ^ ": outcomes") outcomes' outcomes)
    (every_counter ())

(* (name, load-vector checksum, completions digest): n = 64, Poisson 0.05
   per source, 500 ops, exponential delays, seed 42 — the ten counters
   that ran open loop before the host existed. *)
let open_goldens =
  [
    ("retire-tree", 2180187671982087147, "ddab8526c6f7d3e37ba7af8a1489b0c2");
    ("central", 83424333527936051, "3238bb5e72a5a5cfa9edff11ce8e7c50");
    ("combining", 2048890336185917075, "a1c3266649b68ace330a2679959311e3");
    ("counting-net", 864925152350221515, "cd1c3c86df66e1c797dd85c96e7410d9");
    ("diffracting", 4261029624034322795, "6baa513bbcc2d2c41de33627d62a4edc");
    ("quorum-majority", 1829309918592815303, "e92bca3f6d617320518036f53a2371fb");
    ("quorum-grid", 1993542348161843967, "51dbcf829ed99294cc8f7f91c1bac32d");
    ("quorum-tree", 288492299186908825, "2351ce3dab6b47970ed88d052dea0847");
    ("quorum-crumbling-wall", 2804205769892363795, "5dbd121b1a6364ef7f38f11e6f63b601");
    ("quorum-projective-plane", 1231301683029396570, "2598f46cca44c5c3697ee4cbddb28baf");
  ]

let run_open name =
  match Baselines.Registry.find name with
  | None -> Alcotest.failf "%s: no such counter" name
  | Some (module C : Counter.Counter_intf.S) ->
      let n = C.supported_n 64 in
      let c = C.create ~seed:42 ~delay:(Sim.Delay.Exponential 1.0) ~n () in
      let plan =
        Sim.Arrivals.merge (Sim.Arrivals.Poisson 0.05) ~seed:43 ~n ~ops:500
      in
      Array.iteri
        (fun op (at, origin) -> C.launch_at c ~op ~origin ~at)
        plan;
      C.run_open c;
      let rendered =
        List.map
          (fun (op, value, at) -> Printf.sprintf "%d,%d,%h" op value at)
          (C.completions c)
      in
      ( Sim.Metrics.checksum (C.metrics c),
        Digest.to_hex (Digest.string (String.concat ";" rendered)) )

let open_names =
  [
    "retire-tree";
    "central";
    "combining";
    "counting-net";
    "diffracting";
    "quorum-majority";
    "quorum-grid";
    "quorum-tree";
    "quorum-crumbling-wall";
    "quorum-projective-plane";
  ]

let test_open_goldens () =
  List.iter
    (fun name ->
      let checksum, completions = run_open name in
      match List.find_opt (fun (n, _, _) -> n = name) open_goldens with
      | None -> Alcotest.failf "%s: no golden" name
      | Some (_, checksum', completions') ->
          check Alcotest.int (name ^ ": checksum") checksum' checksum;
          check Alcotest.string (name ^ ": completions") completions'
            completions)
    open_names

(* (name, load-vector checksum, outcome digest) under one crash/recover
   plan, closed loop as in [closed_goldens]. *)
let faulted_plan = "crash:3@4/recover:3@40"

let faulted_goldens =
  [
    ("retire-ft", 33296852510968245, "624a24903876bc820a5451fb8484417a");
    ("quorum-majority", 2438481103493677731, "63d309cd95c8df7ba9008378d9a0e53e");
    ("durable", 494647162259506804, "63d309cd95c8df7ba9008378d9a0e53e");
  ]

let test_faulted_goldens () =
  let faults =
    match Sim.Fault.of_string faulted_plan with
    | Ok f -> f
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  List.iter
    (fun name ->
      let c =
        match Baselines.Registry.find name with
        | Some c -> c
        | None -> Alcotest.failf "no counter %s" name
      in
      let checksum, _, outcomes = run_closed ~faults c ~n:64 in
      match List.find_opt (fun (n, _, _) -> n = name) faulted_goldens with
      | None -> Alcotest.failf "%s: no golden" name
      | Some (_, checksum', outcomes') ->
          check Alcotest.int (name ^ ": checksum") checksum' checksum;
          check Alcotest.string (name ^ ": outcomes") outcomes' outcomes)
    [ "retire-ft"; "quorum-majority"; "durable" ]

(* (name, plan, delay, load-vector checksum, outcome digest): the quorum
   counters' closed loop under drops and crashes, two seed-shuffled
   each-once passes. Delays of 40, and exponential delays of mean 20, let
   replies outlive the client's 32-unit first timeout, so these rows pin
   what a late reply does: it still raises a read's maximum and clears
   the origin's suspicion of its sender. *)
let late_reply_goldens =
  [
    ( "quorum-majority", "drop:0.1", "constant:1",
      1940317102970906339, "e1f012b0d6116921fece99618422bb09" );
    ( "quorum-grid", "drop:0.1", "constant:1",
      1944498388799593567, "e1f012b0d6116921fece99618422bb09" );
    ( "quorum-tree", "drop:0.1", "constant:1",
      789754687161974541, "d540e83973d37da0d51d9043c3236698" );
    ( "quorum-crumbling-wall", "drop:0.1", "constant:1",
      1607592074007418545, "529a9f2fcd81f7882ca8a2048c0dd41c" );
    ( "quorum-projective-plane", "drop:0.1", "constant:1",
      909736677648356350, "ceccfe32c3217ce1ce9f5e2051a70ecd" );
    ( "quorum-majority", "crash:3@0/drop:0.1", "exp:1",
      1477867915440554917, "adbd00f4e7fe93956a3d8906cefeb3a3" );
    ( "quorum-grid", "crash:3@0/drop:0.1", "exp:1",
      3978553611813668415, "adbd00f4e7fe93956a3d8906cefeb3a3" );
    ( "quorum-tree", "crash:3@0/drop:0.1", "exp:1",
      2431058167038059705, "54dd9530e5d41cba37a6a4a205522ade" );
    ( "quorum-crumbling-wall", "crash:3@0/drop:0.1", "exp:1",
      2107139924927077191, "195d284081b871fbd4739e3aaa13e003" );
    ( "quorum-projective-plane", "crash:3@0/drop:0.1", "exp:1",
      679018849589592868, "d9395747bbbd9ac897ee349c09f9a1ad" );
    ( "quorum-majority", "drop:0.1", "constant:40",
      107491157405993537, "e1f012b0d6116921fece99618422bb09" );
    ( "quorum-grid", "drop:0.1", "constant:40",
      2678964625198920679, "e1f012b0d6116921fece99618422bb09" );
    ( "quorum-tree", "drop:0.1", "constant:40",
      1405346093688163499, "93aa4264312c8feb39750bcbc0da9e10" );
    ( "quorum-crumbling-wall", "drop:0.1", "constant:40",
      3390198933490250599, "384297254c86fb5a37f1cba15ef9f3b6" );
    ( "quorum-projective-plane", "drop:0.1", "constant:40",
      204698145516404088, "999a8136acd7e2007ddc619f72c03115" );
    ( "quorum-majority", "crash:3@0/drop:0.1", "constant:40",
      3515756070655161709, "adbd00f4e7fe93956a3d8906cefeb3a3" );
    ( "quorum-grid", "crash:3@0/drop:0.1", "constant:40",
      3272714710092398805, "adbd00f4e7fe93956a3d8906cefeb3a3" );
    ( "quorum-tree", "crash:3@0/drop:0.1", "constant:40",
      2245730574973740367, "54dd9530e5d41cba37a6a4a205522ade" );
    ( "quorum-crumbling-wall", "crash:3@0/drop:0.1", "constant:40",
      2386238366766683677, "adbd00f4e7fe93956a3d8906cefeb3a3" );
    ( "quorum-projective-plane", "crash:3@0/drop:0.1", "constant:40",
      54625026256486158, "b8e990e8673790e561cb569277c874b6" );
    ( "quorum-majority", "drop:0.1", "exp:20",
      1747887632692550473, "e1f012b0d6116921fece99618422bb09" );
    ( "quorum-grid", "drop:0.1", "exp:20",
      1316499761490369099, "1420f18f2537b8d0bca0485d6eb167b5" );
    ( "quorum-tree", "drop:0.1", "exp:20",
      382700774119604069, "a90543d59d67b04d8d580a4fcb6f3b7a" );
    ( "quorum-crumbling-wall", "drop:0.1", "exp:20",
      3292471342933374015, "7572db6873e9a960307224772770d442" );
    ( "quorum-projective-plane", "drop:0.1", "exp:20",
      3583061727267968408, "ec89d2a0cab0d03d47e4acdbc5172b44" );
    ( "quorum-majority", "crash:3@0/drop:0.1", "exp:20",
      841507753260583251, "adbd00f4e7fe93956a3d8906cefeb3a3" );
    ( "quorum-grid", "crash:3@0/drop:0.1", "exp:20",
      1642338917845654841, "02c16017d91cde744321e141a5fa9972" );
    ( "quorum-tree", "crash:3@0/drop:0.1", "exp:20",
      2221156255610743945, "073f86ee16d405092accf904fc783881" );
    ( "quorum-crumbling-wall", "crash:3@0/drop:0.1", "exp:20",
      2863323419278600929, "201023df7eb5aab917f6b52f73ffe56d" );
    ( "quorum-projective-plane", "crash:3@0/drop:0.1", "exp:20",
      2215817605545966940, "165690280ec9e71d95d4620105cabe0a" );
  ]

let test_late_reply_goldens () =
  let parse of_string spec =
    match of_string spec with
    | Ok v -> v
    | Error e -> Alcotest.failf "bad spec %s: %s" spec e
  in
  List.iter
    (fun (name, plan, delay, checksum', outcomes') ->
      let c =
        match Baselines.Registry.find name with
        | Some c -> c
        | None -> Alcotest.failf "no counter %s" name
      in
      let checksum, _, outcomes =
        run_closed
          ~faults:(parse Sim.Fault.of_string plan)
          ~delay:(parse Sim.Delay.of_string delay)
          ~passes:2 c ~n:64
      in
      let row = String.concat " " [ name; plan; delay ] in
      check Alcotest.int (row ^ ": checksum") checksum' checksum;
      check Alcotest.string (row ^ ": outcomes") outcomes' outcomes)
    late_reply_goldens

let () =
  Alcotest.run "determinism"
    [
      ( "golden",
        List.map
          (fun g -> Alcotest.test_case g.name `Quick (test_golden g))
          goldens
        @ [ Alcotest.test_case "fault plans" `Quick test_fault_plan_goldens ]
      );
      ( "reproducibility",
        [
          Alcotest.test_case "repeat runs identical" `Quick
            test_repeat_runs_identical;
          Alcotest.test_case "Fault.none bit-identical to goldens" `Quick
            test_fault_none_bit_identical;
          Alcotest.test_case "fault plan reproducible" `Quick
            test_fault_plan_reproducible;
          Alcotest.test_case "driver reports reproducible" `Quick
            test_driver_reports_reproducible;
        ] );
      (* The group keeps its historical name: these goldens were the
         single-run rows of the event-queue shard matrix, removed together
         with the sharded queue. *)
      ( "shard matrix",
        [
          Alcotest.test_case "durable golden" `Quick test_durable_golden;
          Alcotest.test_case "sync-count golden" `Quick test_sync_golden;
        ] );
      ( "every counter",
        [
          Alcotest.test_case "closed load vectors" `Quick test_closed_goldens;
          Alcotest.test_case "open load vectors" `Quick test_open_goldens;
          Alcotest.test_case "faulted load vectors" `Quick
            test_faulted_goldens;
          Alcotest.test_case "late quorum replies" `Quick
            test_late_reply_goldens;
        ] );
    ]
