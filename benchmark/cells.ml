(* Cells: one counter run each, built step by step from the library's
   public calls so the benchmark can time and trace every layer
   boundary. Each step sequence mirrors the library's own entry point —
   [run_closed] is [Counter.Driver.run], [run_open] is
   [Counter.Driver.run_load], [run_mc] is [Mc.Explore.check] — and the
   differential test (test_bench.ml) pins them together.

   A cell's time splits into set-up (plan parsing, [create], origins,
   arrivals) and the run proper; the contract checks that follow are not
   timed. *)

module Intf = Counter.Counter_intf

let now = Span.now_ns

(* Words allocated so far by this domain; promoted words would otherwise
   count twice. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let timed ?op name f =
  Span.enter ?op name;
  match f () with
  | v ->
      ignore (Span.leave ());
      v
  | exception e ->
      ignore (Span.leave ());
      raise e

type result = {
  plan : string;
  setup_ns : int;
  run_ns : int;
  words : float;  (** allocated during the run proper *)
  ops : int;  (** increments issued, across every execution of the cell *)
  messages : int;
  bottleneck : int;  (** max_p m_p *)
  checksum : int;  (** {!Sim.Metrics.checksum}, informational *)
  attempted : int;  (** ops, or 1 for a model-checking cell *)
  failed : int;  (** of [attempted], those that broke the contract *)
  stalled : int;
  problems : string list;
  counts : (string * float) list;  (** per-layer counts, summed over cells *)
  latencies : int array;
      (** ns per per-operation protocol call ([inc_result], or [launch_at]
          in the open loop), traced runs only *)
  peak_overlap : int;
  mean_overlap : float option;
  virtual_p99 : float option;
}

let empty plan =
  {
    plan;
    setup_ns = 0;
    run_ns = 0;
    words = 0.;
    ops = 0;
    messages = 0;
    bottleneck = 0;
    checksum = 0;
    attempted = 0;
    failed = 0;
    stalled = 0;
    problems = [];
    counts = [];
    latencies = [||];
    peak_overlap = 0;
    mean_overlap = None;
    virtual_p99 = None;
  }

let parse_faults text =
  match timed Span.fault_parse (fun () -> Sim.Fault.of_string text) with
  | Ok plan -> plan
  | Error e -> invalid_arg e

let fault_counts m =
  [
    ("sim.fault.dropped", Sim.Metrics.dropped m);
    ("sim.fault.duplicated", Sim.Metrics.duplicated m);
    ("sim.fault.crashes", Sim.Metrics.crashes m);
    ("sim.fault.recoveries", Sim.Metrics.recoveries m);
    ("sim.fault.corruptions", Sim.Metrics.corruptions m);
    ("sim.fault.emergency_retirements", Sim.Metrics.emergency_retirements m);
  ]
  |> List.map (fun (k, v) -> (k, float_of_int v))

let contains ~sub s =
  let ls = String.length sub and l = String.length s in
  let rec go i = i + ls <= l && (String.sub s i ls = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Closed loop: one client, each inc waits for the previous one. *)

(* What each closed cell promises, checked op by op. Every faulty cell
   is also [Safe]: no value handed out twice and no ["spec: ..."] stall
   (the runtime monitors' durability and agreement violations). *)
type guarantee =
  | Exact  (** op [i] returns [i]; Hot Spot Lemma holds without faults *)
  | Safe
  | Live_origins
      (** Safe, and an op stalls only when its origin crashed (retire-ft
          below the overflow pool, quorum with f < n/2, no drops) *)
  | Durable  (** Safe, and every acked value is below the durable count *)

type closed = {
  counter : Intf.counter;
  n : int;  (** requested; rounded up by [supported_n] *)
  schedule : Counter.Schedule.t;
  delay : Sim.Delay.t;
  faults : string;  (** plan text, parsed during set-up *)
  seed : int;
  guarantee : guarantee;
}

type closed_obs = {
  n : int;
  outcomes : Intf.outcome array;
  origin_down : bool array;  (** origin crashed when its op returned *)
  hotspot_violations : Counter.Hotspot.violation list;
  traces : int;
  metrics : Sim.Metrics.t;
  value : int;
}

(* The steps of [Counter.Driver.run]: create with [seed], origins from
   [seed + 1], one [inc_result] per origin, Hot Spot check over the
   traces. *)
let closed_steps ~traced (s : closed) =
  let (module C : Intf.S) = s.counter in
  let n = C.supported_n s.n in
  let t0 = now () in
  let faults = parse_faults s.faults in
  let c =
    timed Span.protocol_create (fun () ->
        C.create ~seed:s.seed ~delay:s.delay ~faults ~n ())
  in
  let origins =
    timed Span.schedule_origins (fun () ->
        Array.of_list
          (Counter.Schedule.origins s.schedule
             (Sim.Rng.create ~seed:(s.seed + 1))
             ~n))
  in
  let t1 = now () in
  let w0 = allocated_words () in
  let ops = Array.length origins in
  let outcomes = Array.make ops (Intf.Completed 0) in
  let origin_down = Array.make ops false in
  let watch = s.guarantee = Live_origins in
  let latencies = if traced then Array.make ops 0 else [||] in
  for i = 0 to ops - 1 do
    let origin = origins.(i) in
    if traced then begin
      Span.enter ~op:i Span.protocol_inc;
      (match C.inc_result c ~origin with
      | r -> outcomes.(i) <- r
      | exception e ->
          ignore (Span.leave ());
          raise e);
      latencies.(i) <- Span.leave ()
    end
    else outcomes.(i) <- C.inc_result c ~origin;
    if watch then origin_down.(i) <- C.crashed c origin
  done;
  let inc_words = allocated_words () -. w0 in
  let traces, violations =
    timed Span.hotspot_check (fun () ->
        let traces = C.traces c in
        (List.length traces, Counter.Hotspot.check traces))
  in
  let t2 = now () in
  let words = allocated_words () -. w0 in
  let obs =
    {
      n;
      outcomes;
      origin_down;
      hotspot_violations = violations;
      traces;
      metrics = C.metrics c;
      value = C.value c;
    }
  in
  (obs, t1 - t0, t2 - t1, words, inc_words, latencies)

let closed_failures (s : closed) (o : closed_obs) =
  let problems = ref [] and failed = ref 0 in
  let fail i fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        if List.length !problems < 5 then
          problems := Printf.sprintf "op %d: %s" i msg :: !problems)
      fmt
  in
  (match s.guarantee with
  | Exact ->
      Array.iteri
        (fun i -> function
          | Intf.Completed v when v = i -> ()
          | Intf.Completed v -> fail i "returned %d" v
          | Intf.Stalled r -> fail i "stalled: %s" r)
        o.outcomes;
      if s.faults = "none" then
        List.iter
          (fun (v : Counter.Hotspot.violation) ->
            fail v.second_op "Hot Spot Lemma violated with op %d" v.first_op)
          o.hotspot_violations
  | Safe | Live_origins | Durable ->
      let seen = Hashtbl.create 64 in
      Array.iteri
        (fun i -> function
          | Intf.Completed v ->
              if Hashtbl.mem seen v then fail i "value %d handed out twice" v;
              Hashtbl.replace seen v ();
              if s.guarantee = Durable && v >= o.value then
                fail i "acked value %d lost (durable count %d)" v o.value
          | Intf.Stalled r ->
              if contains ~sub:"spec: " r then fail i "%s" r
              else if
                s.guarantee = Live_origins
                && (not o.origin_down.(i))
                && not (contains ~sub:"origin" r)
              then fail i "live-origin stall: %s" r)
        o.outcomes);
  (!failed, List.rev !problems)

let closed_plan (s : closed) =
  let (module C : Intf.S) = s.counter in
  Printf.sprintf "closed %s n=%d schedule=%s delay=%s faults=%s seed=%d" C.name
    (C.supported_n s.n)
    (Counter.Schedule.to_string s.schedule)
    (Sim.Delay.to_string s.delay)
    s.faults s.seed

let stalls outcomes =
  Array.fold_left
    (fun k -> function Intf.Stalled _ -> k + 1 | Intf.Completed _ -> k)
    0 outcomes

let run_closed ~traced (s : closed) =
  let (module C : Intf.S) = s.counter in
  let o, setup_ns, run_ns, words, inc_words, latencies =
    closed_steps ~traced s
  in
  let failed, problems = closed_failures s o in
  let m = o.metrics in
  let ops = Array.length o.outcomes in
  let messages = Sim.Metrics.total_messages m in
  (* The object store is processor n+1 of the durable counter's
     network; every RPC is one request and one response there. *)
  let rpcs =
    if C.name = "durable" then Sim.Metrics.load m (o.n + 1) / 2 else 0
  in
  {
    plan = closed_plan s;
    setup_ns;
    run_ns;
    words;
    ops;
    messages;
    bottleneck = snd (Sim.Metrics.bottleneck m);
    checksum = Sim.Metrics.checksum m;
    attempted = ops;
    failed;
    stalled = stalls o.outcomes;
    problems;
    counts =
      [
        ("protocol.inc.calls", float_of_int ops);
        ("protocol.inc.deliveries", float_of_int messages);
        ("protocol.inc.words", inc_words);
        ("counter.hotspot.traces", float_of_int o.traces);
        ("sim.store.rpcs", float_of_int rpcs);
      ]
      @ fault_counts m;
    latencies;
    peak_overlap = 0;
    mean_overlap = None;
    virtual_p99 = None;
  }

(* ------------------------------------------------------------------ *)
(* Open loop: arrivals on a virtual-time schedule, whether or not earlier
   operations have completed. *)

type opened = {
  counter : Intf.concurrent;
  n : int;
  arrivals : Sim.Arrivals.t;
  ops : int;
  delay : Sim.Delay.t;
  seed : int;
  linearizable : bool;  (** whether the counter claims linearizability *)
}

type open_obs = {
  n : int;
  history : Counter.History.op list;
  latency : Analysis.Histogram.latency_summary;
  analysis : Counter.History.analysis;
  metrics : Sim.Metrics.t;
}

(* The steps of [Counter.Driver.run_load]. *)
let open_steps ~traced (s : opened) =
  let (module C : Intf.CONCURRENT) = s.counter in
  let n = C.supported_n s.n in
  let t0 = now () in
  let c =
    timed Span.protocol_create (fun () ->
        C.create ~seed:s.seed ~delay:s.delay ~n ())
  in
  let plan =
    timed Span.arrivals_merge (fun () ->
        Sim.Arrivals.merge s.arrivals ~seed:(s.seed + 1) ~n ~ops:s.ops)
  in
  let t1 = now () in
  let w0 = allocated_words () in
  let latencies = if traced then Array.make s.ops 0 else [||] in
  Array.iteri
    (fun op (at, origin) ->
      Span.enter ~op Span.protocol_launch_at;
      (match C.launch_at c ~op ~origin ~at with
      | () -> ()
      | exception e ->
          ignore (Span.leave ());
          raise e);
      let dur = Span.leave () in
      if traced then latencies.(op) <- dur)
    plan;
  timed Span.protocol_run_open (fun () -> C.run_open c);
  let open_words = allocated_words () -. w0 in
  let history =
    List.filter_map
      (fun (op, value, completed_at) ->
        if op < 0 || op >= s.ops then None
        else
          let invoked_at, origin = plan.(op) in
          Some { Counter.History.origin; value; invoked_at; completed_at })
      (C.completions c)
  in
  let latency =
    timed Span.histogram_summary (fun () ->
        if history = [] then
          { Analysis.Histogram.p50 = 0.; p90 = 0.; p99 = 0.; max = 0. }
        else
          Analysis.Histogram.summary
            (Array.of_list
               (List.map
                  (fun (o : Counter.History.op) ->
                    o.completed_at -. o.invoked_at)
                  history)))
  in
  let analysis =
    timed Span.history_analyze (fun () -> Counter.History.analyze history)
  in
  let t2 = now () in
  let words = allocated_words () -. w0 in
  ( { n; history; latency; analysis; metrics = C.metrics c },
    t1 - t0,
    t2 - t1,
    words,
    open_words,
    latencies )

let open_failures (s : opened) (o : open_obs) =
  let seen = Array.make s.ops false in
  let distinct = ref 0 in
  List.iter
    (fun (op : Counter.History.op) ->
      if op.value >= 0 && op.value < s.ops && not seen.(op.value) then begin
        seen.(op.value) <- true;
        incr distinct
      end)
    o.history;
  let completed = List.length o.history in
  let lost = s.ops - completed and wrong = completed - !distinct in
  let order_broken =
    s.linearizable
    &&
    match o.analysis.Counter.History.verdict with
    | Counter.History.Linearizable -> false
    | Counter.History.Violation _ -> true
  in
  let problems =
    (if lost > 0 then [ Printf.sprintf "%d ops lost" lost ] else [])
    @ (if wrong > 0 then
         [ Printf.sprintf "%d values duplicated or out of range" wrong ]
       else [])
    @
    if order_broken then
      [
        Format.asprintf "not linearizable: %a" Counter.History.pp_verdict
          o.analysis.Counter.History.verdict;
      ]
    else []
  in
  (lost + wrong + Bool.to_int order_broken, problems)

let open_plan (s : opened) =
  let (module C : Intf.CONCURRENT) = s.counter in
  Printf.sprintf "open %s n=%d arrivals=%s ops=%d delay=%s seed=%d%s" C.name
    (C.supported_n s.n)
    (Sim.Arrivals.to_string s.arrivals)
    s.ops
    (Sim.Delay.to_string s.delay)
    s.seed
    (if s.linearizable then " linearizable" else "")

let run_open ~traced (s : opened) =
  let o, setup_ns, run_ns, words, open_words, latencies =
    open_steps ~traced s
  in
  let failed, problems = open_failures s o in
  let m = o.metrics in
  let messages = Sim.Metrics.total_messages m in
  let a = o.analysis in
  {
    (empty (open_plan s)) with
    setup_ns;
    run_ns;
    words;
    ops = s.ops;
    messages;
    bottleneck = snd (Sim.Metrics.bottleneck m);
    checksum = Sim.Metrics.checksum m;
    attempted = s.ops;
    failed;
    problems;
    counts =
      [
        ("protocol.open.deliveries", float_of_int messages);
        ("protocol.open.words", open_words);
        ("counter.history.ops", float_of_int (List.length o.history));
      ];
    latencies;
    peak_overlap = a.Counter.History.peak_overlap;
    mean_overlap = Some a.Counter.History.mean_overlap;
    virtual_p99 = Some o.latency.Analysis.Histogram.p99;
  }

(* ------------------------------------------------------------------ *)
(* Model checking: [Mc.Explore.check] builds a fresh counter for every
   execution it replays. The counter is wrapped so the benchmark sees
   each [create] and [inc_result] — to span them and to sum every
   execution's messages — without changing what the explorer runs. *)

type tally = {
  mutable create_ns : int;
  mutable executions : int;
  mutable incs : int;
  mutable messages : int;
  mutable bottleneck : int;
  mutable checksum : int;
  mutable latencies : int list;  (** traced runs only *)
}

let new_tally () =
  {
    create_ns = 0;
    executions = 0;
    incs = 0;
    messages = 0;
    bottleneck = 0;
    checksum = 0;
    latencies = [];
  }

module type OBSERVED = sig
  include Intf.S

  val flush : unit -> unit
end

let observe (module C : Intf.S) (tally : tally) : (module OBSERVED) =
  (module struct
    include C

    let last = ref None

    let flush () =
      match !last with
      | None -> ()
      | Some c ->
          last := None;
          let m = C.metrics c in
          tally.messages <- tally.messages + Sim.Metrics.total_messages m;
          tally.bottleneck <-
            max tally.bottleneck (snd (Sim.Metrics.bottleneck m));
          tally.checksum <- (tally.checksum * 31) + Sim.Metrics.checksum m

    let create ?seed ?delay ?faults ~n () =
      flush ();
      let t0 = now () in
      let c =
        timed ~op:(tally.executions + 1) Span.protocol_create (fun () ->
            C.create ?seed ?delay ?faults ~n ())
      in
      tally.create_ns <- tally.create_ns + (now () - t0);
      last := Some c;
      tally.executions <- tally.executions + 1;
      c

    let increment f =
      tally.incs <- tally.incs + 1;
      Span.enter ~op:tally.executions Span.protocol_inc;
      match f () with
      | v ->
          let dur = Span.leave () in
          if !Span.enabled then tally.latencies <- dur :: tally.latencies;
          v
      | exception e ->
          ignore (Span.leave ());
          raise e

    let inc_result c ~origin = increment (fun () -> C.inc_result c ~origin)
    let inc c ~origin = increment (fun () -> C.inc c ~origin)
  end)

type expect =
  | Survives  (** no violation within the budget *)
  | Budget  (** [Budget_exhausted] *)
  | Violation of string * int  (** property name and decision count *)

type mc = {
  counter : Intf.counter;
  n : int;
  schedule : string;
  faults : string;
  config : Mc.Explore.config;
  seed : int;
  expect : expect;
}

let mc_steps (s : mc) ~counter =
  let t0 = now () in
  let faults = parse_faults s.faults in
  let schedule =
    match Counter.Schedule.of_string s.schedule with
    | Ok sch -> sch
    | Error e -> invalid_arg e
  in
  let t1 = now () in
  let w0 = allocated_words () in
  let outcome =
    timed Span.mc_explore (fun () ->
        Mc.Explore.check ~seed:s.seed ~faults ~config:s.config counter ~n:s.n
          ~schedule)
  in
  let t2 = now () in
  (outcome, t1 - t0, t2 - t1, allocated_words () -. w0)

let verdict_string = function
  | Mc.Explore.Exhausted_ok -> "exhausted-ok"
  | Mc.Explore.Budget_exhausted -> "budget-exhausted"
  | Mc.Explore.Violation_found v ->
      Printf.sprintf "violation %s after %d decisions"
        (Mc.Explore.property_name v.Mc.Explore.property)
        (List.length v.Mc.Explore.decisions)

let mc_meets expect (verdict : Mc.Explore.verdict) =
  match (expect, verdict) with
  | Survives, (Exhausted_ok | Budget_exhausted) -> true
  | Budget, Budget_exhausted -> true
  | Violation (property, len), Violation_found v ->
      Mc.Explore.property_name v.Mc.Explore.property = property
      && List.length v.Mc.Explore.decisions = len
  | _ -> false

let mc_plan (s : mc) =
  let (module C : Intf.S) = s.counter in
  Printf.sprintf
    "mc %s n=%d schedule=%s faults=%s max-states=%d max-depth=%d seed=%d" C.name
    s.n s.schedule s.faults s.config.Mc.Explore.max_states
    s.config.Mc.Explore.max_depth s.seed

let run_mc (s : mc) =
  let tally = new_tally () in
  let (module O : OBSERVED) = observe s.counter tally in
  let outcome, setup_ns, run_ns, words =
    mc_steps s ~counter:(module O : Intf.S)
  in
  O.flush ();
  (* Every execution's [create] is set-up, as in the other cells. *)
  let setup_ns = setup_ns + tally.create_ns
  and run_ns = run_ns - tally.create_ns in
  let ok = mc_meets s.expect outcome.Mc.Explore.verdict in
  let st = outcome.Mc.Explore.stats in
  {
    (empty (mc_plan s)) with
    setup_ns;
    run_ns;
    words;
    ops = tally.incs;
    messages = tally.messages;
    bottleneck = tally.bottleneck;
    checksum = tally.checksum;
    attempted = 1;
    failed = (if ok then 0 else 1);
    problems =
      (if ok then []
       else [ "unexpected verdict: " ^ verdict_string outcome.verdict ]);
    counts =
      [
        ("protocol.inc.calls", float_of_int tally.incs);
        ("protocol.inc.deliveries", float_of_int tally.messages);
        ("mc.explore.states", float_of_int st.Mc.Explore.states);
        ("mc.explore.executions", float_of_int st.Mc.Explore.executions);
        ("mc.explore.sleep_skips", float_of_int st.Mc.Explore.sleep_skips);
        ("mc.explore.depth_capped", float_of_int st.Mc.Explore.depth_capped);
      ];
    latencies = Array.of_list tally.latencies;
  }

(* ------------------------------------------------------------------ *)

type cell = Closed of closed | Open of opened | Mc of mc

let plan = function
  | Closed s -> closed_plan s
  | Open s -> open_plan s
  | Mc s -> mc_plan s

(* Operations a cell attempts; a model-checking cell is one attempt. *)
let attempts = function
  | Closed s ->
      let (module C : Intf.S) = s.counter in
      Counter.Schedule.ops s.schedule ~n:(C.supported_n s.n)
  | Open s -> s.ops
  | Mc _ -> 1

let run ~traced = function
  | Closed s -> run_closed ~traced s
  | Open s -> run_open ~traced s
  | Mc s -> run_mc s

(* A cell that raised (a [Storm], an untyped exception) failed as a
   whole; the run carries on with the next cell. *)
let crashed cell exn =
  let k = attempts cell in
  {
    (empty (plan cell)) with
    attempted = k;
    failed = k;
    problems = [ "raised " ^ Printexc.to_string exn ];
  }
