(* Throughput benchmark suite for the simulation engine.

   Six sections, each reported as events (or ops) per second plus words
   allocated per event (from [Gc] counters):

   1. heap      — raw push/pop on the frozen seed binary heap
                  (bench/seed_heap.ml) vs the structure-of-arrays 4-ary
                  [Sim.Heap], identical priority streams. The headline
                  regression number: the rewrite must stay >= 2x.
   2. network   — end-to-end engine throughput: a message-relay protocol on
                  [Sim.Network] at n in {10^3, 10^4, 10^5}. Each scale runs
                  twice: the historical fixed-work load (~400k deliveries
                  regardless of n, comparable with BENCH_1) and a scaled
                  load whose delivery count grows with n, so per-event cost
                  at large n is not drowned by a tiny working set.
   3. counters  — sequential increments/second for a representative counter
                  subset at the network scales.
   4. parallel  — a multi-seed sweep through [Analysis.Replicate], timed
                  sequentially and across domains.
   5. load      — the open-loop load engine [Counter.Driver.run_load]:
                  wall-clock ops/second simulating a fixed arrival-rate
                  run for a representative concurrent subset, plus the
                  virtual-time p99 latency and peak overlap each run
                  reports.
   6. byz       — the Byzantine resilience tax: sync-count's phase-king
                  msgs/op against the crash-tolerant retire-ft and
                  quorum-majority at the same n, plus a corrupted run
                  under the b = f king plan proving the message count is
                  fault-oblivious.

   [--json] additionally writes a machine-readable artefact (default
   BENCH_4.json; schema "dcount-bench/4" in docs/PERFORMANCE.md; the
   header records the dune profile and flambda flag the binary was built
   with). [--smoke] shrinks every section to seconds of total runtime for
   CI. [--validate FILE] re-parses an artefact and checks the schema
   instead of benchmarking. [--gate BASELINE] runs the suite and compares
   its rates against a stored artefact, exiting non-zero on regression
   (see [gate] below). *)

module Json = Analysis.Json

let now () = Unix.gettimeofday ()

(* Total words allocated so far by this domain. The minor part comes
   from [Gc.minor_words ()]: [quick_stat]'s [minor_words] only advances
   when a minor collection runs, so it moves in whole minor heaps.
   [promoted_words] is subtracted because promotion would otherwise count
   an allocation twice (once minor, once major). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Measured repetitions per benchmark (after one warm-up run); the fastest
   rep is reported. Best-of-k rather than mean because the regression gate
   compares rates across runs: scheduler preemption only ever makes a rep
   slower, so the minimum is the stable statistic on a shared machine.
   Smoke workloads are tiny and noisiest, so main bumps this to 3 there. *)
let reps = ref 2

(* Run [f] once as warm-up, then [!reps] times measured; returns
   (result, best seconds, words allocated during the best rep). *)
let measure f =
  ignore (f ());
  let result = ref None in
  let best_t = ref infinity and best_w = ref 0.0 in
  for _ = 1 to !reps do
    Gc.full_major ();
    let w0 = allocated_words () in
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    let dw = allocated_words () -. w0 in
    if dt < !best_t then begin
      best_t := dt;
      best_w := dw;
      result := Some r
    end
  done;
  (Option.get !result, !best_t, !best_w)

let rate count seconds = float_of_int count /. seconds

let pr fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Section 1: raw heap push/pop.

   Workload: pre-fill to a working set of [w] pending events, then for each
   remaining priority pop the minimum and push the next — the steady state
   of a discrete-event loop — and finally drain. Both heaps consume the
   same pre-generated priority array, so the comparison is purely the data
   structure. One "event" = one push + one pop. *)

(* Each benchmark folds the popped values into an order-sensitive integer
   checksum. Because (prio, seq) is a total order, both heaps must pop the
   exact same value sequence — a mismatch means one of them is broken.
   Values are immediate ints so the checksum itself allocates nothing;
   each heap pays only its own API's allocation (the seed heap's [pop]
   option/tuple is intrinsic — it is what the old engine called). *)

let bench_seed_heap prios w =
  let h = Seed_heap.create () in
  let total = Array.length prios in
  let acc = ref 0 in
  for i = 0 to w - 1 do
    Seed_heap.push h ~prio:prios.(i) i
  done;
  for i = w to total - 1 do
    (match Seed_heap.pop h with
    | Some (_, v) -> acc := (!acc * 31) + v
    | None -> assert false);
    Seed_heap.push h ~prio:prios.(i) i
  done;
  while Seed_heap.size h > 0 do
    match Seed_heap.pop h with
    | Some (_, v) -> acc := (!acc * 31) + v
    | None -> assert false
  done;
  !acc

let bench_soa_heap prios w =
  let h = Sim.Heap.create ~capacity:w () in
  let total = Array.length prios in
  let acc = ref 0 in
  for i = 0 to w - 1 do
    Sim.Heap.push h ~prio:prios.(i) i
  done;
  for i = w to total - 1 do
    let v = Sim.Heap.pop_top h in
    acc := (!acc * 31) + v;
    Sim.Heap.push h ~prio:prios.(i) i
  done;
  while not (Sim.Heap.is_empty h) do
    let v = Sim.Heap.pop_top h in
    acc := (!acc * 31) + v
  done;
  !acc

let heap_section ~smoke =
  let working_set = if smoke then 512 else 16_384 in
  let events = if smoke then 100_000 else 2_000_000 in
  let rng = Sim.Rng.create ~seed:2026 in
  let prios = Array.init events (fun _ -> Sim.Rng.float rng 1_000.0) in
  let seed_sum, seed_t, seed_w = measure (fun () -> bench_seed_heap prios working_set) in
  let soa_sum, soa_t, soa_w = measure (fun () -> bench_soa_heap prios working_set) in
  (* Same priorities + stable (prio, seq) order => identical pop streams. *)
  if seed_sum <> soa_sum then
    failwith "heap benchmark: seed and SoA heaps popped different streams";
  let per_event words = words /. float_of_int events in
  let speedup = seed_t /. soa_t in
  pr "== heap: %d events through a %d-entry working set ==\n" events
    working_set;
  pr "  seed (boxed binary):   %10.0f events/s  %6.2f words/event\n"
    (rate events seed_t) (per_event seed_w);
  pr "  SoA (unboxed 4-ary):   %10.0f events/s  %6.2f words/event\n"
    (rate events soa_t) (per_event soa_w);
  pr "  speedup: %.2fx   allocation: %.2f -> %.2f words/event\n\n" speedup
    (per_event seed_w) (per_event soa_w);
  Json.Obj
    [
      ("working_set", Json.int working_set);
      ("events", Json.int events);
      ( "seed_heap",
        Json.Obj
          [
            ("events_per_sec", Json.Num (rate events seed_t));
            ("words_per_event", Json.Num (per_event seed_w));
          ] );
      ( "soa_heap",
        Json.Obj
          [
            ("events_per_sec", Json.Num (rate events soa_t));
            ("words_per_event", Json.Num (per_event soa_w));
          ] );
      ("speedup", Json.Num speedup);
    ]

(* ------------------------------------------------------------------ *)
(* Section 2: engine throughput.

   A relay protocol: each message carries a hop budget; on delivery the
   receiver forwards it (hops - 1) to a deterministically scrambled next
   destination until the budget is spent. Measures the full delivery path:
   heap pop, metrics charge, handler dispatch, re-send. *)

let bench_network ~n ~target_events =
  let net = Sim.Network.create ~seed:99 ~n () in
  let injections = min n 256 in
  let hops = max 1 (target_events / injections) in
  Sim.Network.set_handler net (fun ~self ~src:_ hops ->
      if hops > 0 then
        let dst = 1 + (((self * 2654435761) + hops) mod n) in
        Sim.Network.send net ~src:self ~dst (hops - 1));
  for i = 1 to injections do
    Sim.Network.send net ~src:i ~dst:(1 + (i * 7919 mod n)) hops
  done;
  Sim.Network.run_to_quiescence net

(* Two loads per scale. "fixed" keeps the historical ~constant delivery
   count so rows stay comparable with BENCH_1-era artefacts; "scaled"
   grows deliveries linearly with n so the big-n rows actually exercise a
   working set proportional to the machine (a fixed 400k-event load at
   n = 10^5 touches each processor four times — cache effects vanish). *)
let network_section ~smoke ~sizes =
  let fixed_target = if smoke then 20_000 else 400_000 in
  let scaled_target n = if smoke then 20 * n else 40 * n in
  pr "== network: relay protocol (fixed ~%d deliveries; scaled %dx n) ==\n"
    fixed_target
    (if smoke then 20 else 40);
  let row ~n ~work ~target_events =
    let deliveries, t, w =
      measure (fun () -> bench_network ~n ~target_events)
    in
    let per_event = w /. float_of_int deliveries in
    pr
      "  n = %6d  %-6s: %8d deliveries  %10.0f events/s  %6.2f words/event\n"
      n work deliveries (rate deliveries t) per_event;
    Json.Obj
      [
        ("n", Json.int n);
        ("work", Json.Str work);
        ("deliveries", Json.int deliveries);
        ("events_per_sec", Json.Num (rate deliveries t));
        ("words_per_event", Json.Num per_event);
      ]
  in
  let rows =
    List.concat_map
      (fun n ->
        (* lets pin evaluation order: list elements evaluate right-to-left *)
        let fixed = row ~n ~work:"fixed" ~target_events:fixed_target in
        let scaled = row ~n ~work:"scaled" ~target_events:(scaled_target n) in
        [ fixed; scaled ])
      sizes
  in
  pr "\n";
  Json.List rows

(* ------------------------------------------------------------------ *)
(* Section 3: counters.

   Sequential increments/second for a representative subset: the central
   server (message-cheap, maximally contended), the paper's retire-tree,
   the static tree, and the bitonic counting network. Creation cost is
   excluded; the ops budget is capped so the largest scale stays seconds. *)

let counter_subset =
  [
    Baselines.Registry.central;
    Baselines.Registry.static_tree;
    Baselines.Registry.retire_tree;
    Baselines.Registry.counting_network;
  ]

let bench_counter (module C : Counter.Counter_intf.S) ~n ~ops =
  (* [measure] can't wrap the op loop alone — a counter's value stream is
     stateful — so each rep gets a fresh counter and times only the ops;
     creation doubles as the warm-up. Best-of-reps, like [measure]. *)
  let best_t = ref infinity and best_w = ref 0.0 and best_msgs = ref 0 in
  for _ = 1 to !reps do
    let c = C.create ~seed:5 ~n () in
    let out = ref 0 in
    Gc.full_major ();
    let w0 = allocated_words () in
    let t0 = now () in
    for i = 0 to ops - 1 do
      out := C.inc c ~origin:(1 + (i mod n))
    done;
    let dt = now () -. t0 in
    let dw = allocated_words () -. w0 in
    if dt < !best_t then begin
      best_t := dt;
      best_w := dw;
      best_msgs := Sim.Metrics.total_messages (C.metrics c)
    end
  done;
  (!best_t, !best_w, !best_msgs)

let counters_section ~smoke ~sizes =
  (* The smoke budget must still be long enough to time: 64 ops of the
     fastest counter is single-digit microseconds — pure timer noise —
     and the regression gate compares these rates across runs. *)
  let ops_budget = if smoke then 512 else 2_000 in
  pr "== counters: sequential increments (ops budget %d) ==\n" ops_budget;
  let rows =
    List.concat_map
      (fun (module C : Counter.Counter_intf.S) ->
        List.map
          (fun requested ->
            let n = C.supported_n requested in
            let ops = min n ops_budget in
            let dt, dw, msgs = bench_counter (module C) ~n ~ops in
            pr
              "  %-14s n = %6d: %8.0f ops/s  %7.1f msgs/op  %8.0f \
               words/op\n"
              C.name n (rate ops dt)
              (float_of_int msgs /. float_of_int ops)
              (dw /. float_of_int ops);
            Json.Obj
              [
                ("counter", Json.Str C.name);
                ("requested_n", Json.int requested);
                ("n", Json.int n);
                ("ops", Json.int ops);
                ("ops_per_sec", Json.Num (rate ops dt));
                ( "messages_per_op",
                  Json.Num (float_of_int msgs /. float_of_int ops) );
                ("words_per_op", Json.Num (dw /. float_of_int ops));
              ])
          sizes)
      counter_subset
  in
  pr "\n";
  Json.List rows

(* ------------------------------------------------------------------ *)
(* Section 4: multi-seed sweep across domains. *)

let sweep_run ~n seed =
  let r =
    Counter.Driver.run ~seed Baselines.Registry.retire_tree ~n
      ~schedule:Counter.Schedule.Each_once_shuffled
  in
  float_of_int r.Counter.Driver.bottleneck_load

let parallel_section ~smoke =
  let n = if smoke then 81 else 2187 in
  let seeds = List.init (if smoke then 2 else 8) (fun i -> i + 1) in
  let runs = List.length seeds in
  let f = sweep_run ~n in
  ignore (f (List.hd seeds));
  let t0 = now () in
  let seq = Analysis.Replicate.across_seeds ~seeds f in
  let seq_t = now () -. t0 in
  let t0 = now () in
  let par = Analysis.Replicate.across_seeds_parallel ~seeds f in
  let par_t = now () -. t0 in
  if seq.Analysis.Replicate.mean <> par.Analysis.Replicate.mean then
    failwith "parallel sweep: sequential and parallel summaries disagree";
  let speedup = seq_t /. par_t in
  pr "== parallel: retire-tree each-once at n = %d, %d seeds ==\n" n runs;
  pr "  sequential: %.3f s   parallel: %.3f s   speedup: %.2fx\n" seq_t par_t
    speedup;
  pr "  bottleneck load: %s\n\n"
    (Format.asprintf "%a" Analysis.Replicate.pp_summary seq);
  Json.Obj
    [
      ("n", Json.int n);
      ("seeds", Json.int runs);
      ("sequential_sec", Json.Num seq_t);
      ("parallel_sec", Json.Num par_t);
      ("speedup", Json.Num speedup);
      ("mean_bottleneck", Json.Num seq.Analysis.Replicate.mean);
    ]

(* ------------------------------------------------------------------ *)
(* Section 5: open-loop load engine.

   [Driver.run_load] at fixed per-source arrival rates, exp:1 delays (the
   [dcount load] default, so the overlap regime is exercised rather than
   the constant-delay lock-step pipeline). The throughput number is
   wall-clock operations simulated per second — how fast the engine chews
   through an open-loop run — while p99 latency and peak overlap are the
   run's own virtual-time figures, pinned here so an artefact also
   documents the workload's shape. *)

let load_subset = [ "central"; "combining"; "counting-net"; "retire-tree" ]

let load_section ~smoke =
  let n = if smoke then 16 else 64 in
  let ops = if smoke then 256 else 2_000 in
  let rates = if smoke then [ 0.5 ] else [ 0.2; 2.0 ] in
  pr "== load: open-loop engine, n = %d, %d ops (rates per source) ==\n" n
    ops;
  let rows =
    List.concat_map
      (fun name ->
        let c =
          match Baselines.Registry.find name with
          | Some c -> c
          | None -> failwith ("load benchmark: unknown counter " ^ name)
        in
        List.map
          (fun arrival_rate ->
            let report, t, w =
              measure (fun () ->
                  Counter.Driver.run_load ~seed:5
                    ~delay:(Sim.Delay.Exponential 1.0) c ~n
                    ~arrivals:(Sim.Arrivals.Poisson arrival_rate) ~ops)
            in
            let lat = report.Counter.Driver.latency in
            let a = report.Counter.Driver.analysis in
            pr
              "  %-14s rate = %4.2f: %8.0f ops/s  p99 = %6.2f  peak = %4d  \
               linearizable = %b\n"
              name arrival_rate (rate ops t) lat.Analysis.Histogram.p99
              a.Counter.History.peak_overlap a.Counter.History.linearizable;
            Json.Obj
              [
                ("counter", Json.Str name);
                ("n", Json.int report.Counter.Driver.n);
                ("rate", Json.Num arrival_rate);
                ("ops", Json.int ops);
                ("ops_per_sec", Json.Num (rate ops t));
                ("words_per_op", Json.Num (w /. float_of_int ops));
                ("p99_virtual", Json.Num lat.Analysis.Histogram.p99);
                ("peak_overlap", Json.int a.Counter.History.peak_overlap);
                ("linearizable", Json.Bool a.Counter.History.linearizable);
              ])
          rates)
      load_subset
  in
  pr "\n";
  Json.List rows

(* ------------------------------------------------------------------ *)
(* Section 6: Byzantine resilience tax.

   What does tolerating f < n/3 corrupt processors cost per increment
   compared to counters that only survive crashes? sync-count's
   phase-king exchange is all-to-all in every round, so its msgs/op
   dwarfs the crash-tolerant baselines at the same n — the tax m_b this
   section pins: sync-count msgs/op divided by each baseline's. The
   faulted row re-runs sync-count under the chaos sweep's b = f king
   plan; the schedule is fault-oblivious, so the message count must not
   move — only the corruption counters — and the section asserts that. *)

let bench_byz_counter (module C : Counter.Counter_intf.S) ?faults ~n ~ops ()
    =
  let best_t = ref infinity
  and best_w = ref 0.0
  and best_msgs = ref 0
  and best_corruptions = ref 0 in
  for _ = 1 to !reps do
    let c = C.create ~seed:5 ?faults ~n () in
    let out = ref 0 in
    Gc.full_major ();
    let w0 = allocated_words () in
    let t0 = now () in
    for i = 0 to ops - 1 do
      out := C.inc c ~origin:(1 + (i mod n))
    done;
    let dt = now () -. t0 in
    let dw = allocated_words () -. w0 in
    if dt < !best_t then begin
      best_t := dt;
      best_w := dw;
      best_msgs := Sim.Metrics.total_messages (C.metrics c);
      best_corruptions := Sim.Metrics.corruptions (C.metrics c)
    end
  done;
  (!best_t, !best_w, !best_msgs, !best_corruptions)

let byz_section ~smoke =
  let requested = if smoke then 7 else 13 in
  let ops = if smoke then 28 else 128 in
  pr "== byz: resilience tax at n = %d (%d ops) ==\n" requested ops;
  let row (module C : Counter.Counter_intf.S) ?faults label =
    let n = C.supported_n requested in
    let dt, dw, msgs, corruptions =
      bench_byz_counter (module C) ?faults ~n ~ops ()
    in
    let msgs_per_op = float_of_int msgs /. float_of_int ops in
    pr "  %-18s n = %3d: %8.0f ops/s  %8.1f msgs/op  corrupted = %d\n"
      label n (rate ops dt) msgs_per_op corruptions;
    let json =
      Json.Obj
        [
          ("counter", Json.Str label);
          ("requested_n", Json.int requested);
          ("n", Json.int n);
          ("ops", Json.int ops);
          ( "faults",
            Json.Str
              (match faults with
              | None -> ""
              | Some f -> Sim.Fault.to_string f) );
          ("ops_per_sec", Json.Num (rate ops dt));
          ("messages_per_op", Json.Num msgs_per_op);
          ("words_per_op", Json.Num (dw /. float_of_int ops));
          ("corruptions", Json.int corruptions);
        ]
    in
    (json, msgs_per_op, corruptions)
  in
  let sync, sync_mpo, _ = row (module Core.Sync_counter) "sync-count" in
  let (module Ft : Counter.Counter_intf.S) = Baselines.Registry.retire_ft in
  let ft, ft_mpo, _ = row (module Ft) "retire-ft" in
  let (module Qm : Counter.Counter_intf.S) =
    Baselines.Registry.quorum_majority
  in
  let qm, qm_mpo, _ = row (module Qm) "quorum-majority" in
  let n = Core.Sync_counter.supported_n requested in
  let faulted, faulted_mpo, corruptions =
    row
      (module Core.Sync_counter)
      ~faults:(Core.Sync_counter.king_plan ~n ~b:((n - 1) / 3))
      "sync-count+byz"
  in
  if faulted_mpo <> sync_mpo then
    failwith "byz bench: corruption changed the message count";
  if corruptions = 0 then
    failwith "byz bench: the b = f king plan corrupted nothing";
  let tax_ft = sync_mpo /. ft_mpo and tax_qm = sync_mpo /. qm_mpo in
  pr "  resilience tax m_b: %.1fx vs retire-ft, %.1fx vs quorum-majority\n\n"
    tax_ft tax_qm;
  let tag row extra =
    match row with
    | Json.Obj fields -> Json.Obj (fields @ extra)
    | other -> other
  in
  Json.List
    [
      tag sync
        [
          ("m_b_vs_retire_ft", Json.Num tax_ft);
          ("m_b_vs_quorum_majority", Json.Num tax_qm);
        ];
      ft;
      qm;
      faulted;
    ]

(* ------------------------------------------------------------------ *)
(* Artefact validation (the [make bench-smoke] gate). *)

let validate_field doc path extract =
  let rec walk v = function
    | [] -> Some v
    | key :: rest -> Option.bind (Json.member key v) (fun v -> walk v rest)
  in
  match Option.bind (walk doc path) extract with
  | Some x -> x
  | None ->
      Printf.eprintf "invalid artefact: missing or ill-typed %s\n"
        (String.concat "." path);
      exit 1

let load_doc file =
  let contents =
    match open_in_bin file with
    | exception Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.parse contents with
  | Error msg ->
      Printf.eprintf "%s: JSON parse error: %s\n" file msg;
      exit 1
  | Ok doc -> doc

let validate file =
  let doc = load_doc file in
  let schema = validate_field doc [ "schema" ] Json.to_str in
  let version =
    match schema with
    | "dcount-bench/1" -> 1
    | "dcount-bench/2" -> 2
    | "dcount-bench/3" -> 3
    | "dcount-bench/4" -> 4
    | _ ->
        Printf.eprintf "%s: unknown schema %S\n" file schema;
        exit 1
  in
  let v2 = version >= 2 in
  let speedup = validate_field doc [ "heap"; "speedup" ] Json.to_float in
  let check_rows section required_nums required_strs =
    let rows = validate_field doc [ section ] Json.to_list in
    if rows = [] then begin
      Printf.eprintf "%s: empty %s section\n" file section;
      exit 1
    end;
    List.iter
      (fun row ->
        List.iter
          (fun key -> ignore (validate_field row [ key ] Json.to_float))
          required_nums;
        List.iter
          (fun key -> ignore (validate_field row [ key ] Json.to_str))
          required_strs)
      rows
  in
  check_rows "network"
    [ "n"; "events_per_sec"; "words_per_event" ]
    (if v2 then [ "work" ] else []);
  check_rows "counters" [ "n"; "ops_per_sec"; "messages_per_op" ] [];
  if v2 then ignore (validate_field doc [ "profile" ] Json.to_str);
  if version >= 3 then
    check_rows "load"
      [ "n"; "rate"; "ops_per_sec"; "p99_virtual"; "peak_overlap" ]
      [ "counter" ];
  if version >= 4 then
    check_rows "byz"
      [ "n"; "ops_per_sec"; "messages_per_op" ]
      [ "counter"; "faults" ];
  ignore (validate_field doc [ "parallel"; "speedup" ] Json.to_float);
  Printf.printf "%s: valid %s (heap speedup %.2fx)\n" file schema speedup;
  if Float.is_nan speedup || speedup <= 0.0 then exit 1

(* ------------------------------------------------------------------ *)
(* Regression gate ([make bench-smoke]).

   Flattens an artefact into (key, rate) samples — every throughput
   number the suite emits, each under a stable path-like key — then
   compares the freshly measured run against a stored baseline on the
   keys both sides share. A sample regresses when

     current < baseline * (1 - tolerance)

   Improvements always pass: the gate is one-sided. Cross-mode
   comparisons (a smoke run gated against a full artefact, which is what
   CI does — the committed baselines are full runs) double the tolerance,
   because smoke workloads are small enough for warm-up and timer
   granularity to move rates by more than run-to-run noise. [handicap]
   scales the current rates before comparison; CI uses it to inject a
   synthetic regression and prove the gate actually fails. Zero shared
   keys is itself a failure — a gate that compares nothing must not
   report success. *)

let samples_of_doc doc =
  let get o k extract = Option.bind (Json.member k o) extract in
  let rows section =
    match Option.bind (Json.member section doc) Json.to_list with
    | Some rows -> rows
    | None -> []
  in
  let heap =
    match
      Option.bind (Json.member "heap" doc) (fun h ->
          Option.bind (Json.member "soa_heap" h) (fun s ->
              Option.bind (Json.member "events_per_sec" s) Json.to_float))
    with
    | Some r -> [ ("heap/soa", r) ]
    | None -> []
  in
  let network =
    List.filter_map
      (fun row ->
        match (get row "n" Json.to_float, get row "events_per_sec" Json.to_float) with
        | Some n, Some r ->
            (* schema 1 rows predate the work tag and were fixed-work *)
            let work =
              Option.value (get row "work" Json.to_str) ~default:"fixed"
            in
            Some (Printf.sprintf "network/n=%.0f/%s" n work, r)
        | _ -> None)
      (rows "network")
  in
  let counters =
    List.filter_map
      (fun row ->
        match
          ( get row "counter" Json.to_str,
            get row "requested_n" Json.to_float,
            get row "ops_per_sec" Json.to_float )
        with
        | Some c, Some n, Some r ->
            Some (Printf.sprintf "counters/%s/n=%.0f" c n, r)
        | _ -> None)
      (rows "counters")
  in
  let load =
    List.filter_map
      (fun row ->
        match
          ( get row "counter" Json.to_str,
            get row "rate" Json.to_float,
            get row "ops_per_sec" Json.to_float )
        with
        | Some c, Some arrival_rate, Some r ->
            Some (Printf.sprintf "load/%s/rate=%g" c arrival_rate, r)
        | _ -> None)
      (rows "load")
  in
  let byz =
    List.filter_map
      (fun row ->
        match
          ( get row "counter" Json.to_str,
            get row "requested_n" Json.to_float,
            get row "ops_per_sec" Json.to_float )
        with
        | Some c, Some n, Some r ->
            Some (Printf.sprintf "byz/%s/n=%.0f" c n, r)
        | _ -> None)
      (rows "byz")
  in
  heap @ network @ counters @ load @ byz

let doc_mode doc =
  Option.value
    (Option.bind (Json.member "mode" doc) Json.to_str)
    ~default:"full"

let gate ~tolerance ~handicap ~baseline_file current =
  let baseline = load_doc baseline_file in
  let base_samples = samples_of_doc baseline in
  let cur_samples = samples_of_doc current in
  let cross_mode = doc_mode baseline <> doc_mode current in
  let tol = if cross_mode then 2.0 *. tolerance else tolerance in
  pr "== gate: vs %s (tolerance %.0f%%%s%s) ==\n" baseline_file
    (100.0 *. tol)
    (if cross_mode then ", cross-mode doubled" else "")
    (if handicap <> 1.0 then Printf.sprintf ", handicap %.2f" handicap
     else "");
  let compared = ref 0 and regressed = ref 0 in
  List.iter
    (fun (key, base_rate) ->
      match List.assoc_opt key cur_samples with
      | None -> ()
      | Some cur_rate ->
          incr compared;
          let cur_rate = cur_rate *. handicap in
          let floor_rate = base_rate *. (1.0 -. tol) in
          let ok = cur_rate >= floor_rate in
          if not ok then incr regressed;
          pr "  %-32s %10.0f -> %10.0f  %s\n" key base_rate cur_rate
            (if ok then "ok" else "REGRESSED"))
    base_samples;
  if !compared = 0 then begin
    Printf.eprintf
      "gate: no comparable samples between %s and the current run\n"
      baseline_file;
    exit 1
  end;
  if !regressed > 0 then begin
    Printf.eprintf "gate: %d of %d samples regressed beyond %.0f%%\n"
      !regressed !compared (100.0 *. tol);
    exit 1
  end;
  pr "  gate passed: %d samples within tolerance\n\n" !compared

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe [--smoke] [--json] [--out FILE] [--validate FILE]\n\
    \       [--gate BASELINE] [--tolerance T] [--handicap H]";
  exit 2

let () =
  let smoke = ref false
  and json = ref false
  and out = ref "BENCH_4.json"
  and to_validate = ref None
  and gate_against = ref None
  and tolerance = ref 0.25
  and handicap = ref 1.0 in
  let float_arg name s =
    match float_of_string_opt s with
    | Some f when f > 0.0 -> f
    | _ ->
        Printf.eprintf "%s: expected a positive float, got %s\n" name s;
        usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--out" :: file :: rest ->
        out := file;
        parse rest
    | "--validate" :: file :: rest ->
        to_validate := Some file;
        parse rest
    | "--gate" :: file :: rest ->
        gate_against := Some file;
        parse rest
    | "--tolerance" :: t :: rest ->
        tolerance := float_arg "--tolerance" t;
        parse rest
    | "--handicap" :: h :: rest ->
        handicap := float_arg "--handicap" h;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !to_validate with
  | Some file -> validate file
  | None ->
      let smoke = !smoke in
      let sizes = if smoke then [ 100; 1_000 ] else [ 1_000; 10_000; 100_000 ] in
      if smoke then reps := 3;
      pr "build: profile=%s flambda=%b\n\n" Build_info.profile
        Build_info.flambda;
      let heap = heap_section ~smoke in
      let network = network_section ~smoke ~sizes in
      let counters = counters_section ~smoke ~sizes in
      let parallel = parallel_section ~smoke in
      let load = load_section ~smoke in
      let byz = byz_section ~smoke in
      let doc =
        Json.Obj
          [
            ("schema", Json.Str "dcount-bench/4");
            ("mode", Json.Str (if smoke then "smoke" else "full"));
            ("profile", Json.Str Build_info.profile);
            ("flambda", Json.Bool Build_info.flambda);
            ("heap", heap);
            ("network", network);
            ("counters", counters);
            ("parallel", parallel);
            ("load", load);
            ("byz", byz);
          ]
      in
      if !json then begin
        let oc = open_out !out in
        output_string oc (Json.to_string doc);
        close_out oc;
        Printf.printf "wrote %s\n" !out
      end;
      match !gate_against with
      | Some baseline_file ->
          gate ~tolerance:!tolerance ~handicap:!handicap ~baseline_file doc
      | None -> ()
