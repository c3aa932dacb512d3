(* The measured loop, the metrics it derives, and the run documents.

   An untraced run does one warm-up cell, then cycles through the
   workload's cells — every cell at least once — until the time budget is
   spent; each end-to-end metric comes from per-cell medians, so a run
   that fits more passes is not a different mix. A traced run alternates
   an untraced and a traced pass while the budget allows (at least one of
   each), then runs the layer probes; per-layer figures are per traced
   pass, and the pairs give the tracing overhead. *)

module J = Analysis.Json

let end_to_end =
  [
    ("ops_per_s", "ops/s");
    ("events_per_s", "events/s");
    ("wall_s", "s");
    ("setup_s", "s");
    ("words_per_event", "words/event");
    ("peak_heap_mb", "MiB");
    ("msgs_per_op", "msgs/op");
    ("bottleneck_mean", "msgs");
  ]

(* Self time of each traced call is published as its share of the traced
   pass, with the pass time beside it: a layer a workload bypasses then
   reads 0 as a ratio, not as a time. *)
let per_layer =
  [
    ("protocol.create.share", "ratio");
    ("protocol.inc.share", "ratio");
    ("protocol.launch_at.share", "ratio");
    ("protocol.run_open.share", "ratio");
    ("protocol.op.p50_us", "us");
    ("protocol.op.p99_us", "us");
    ("protocol.op.samples", "count");
    ("protocol.inc.calls", "count");
    ("protocol.inc.deliveries", "count");
    ("protocol.inc.words", "words");
    ("protocol.open.deliveries", "count");
    ("protocol.open.words", "words");
    ("protocol.handler.ns_per_event", "ns");
    ("protocol.stalled_ratio", "ratio");
    ("sim.heap.ns_per_op.shallow", "ns");
    ("sim.heap.ns_per_op.deep", "ns");
    ("sim.network.ns_per_event", "ns");
    ("sim.network.words_per_event", "words");
    ("sim.trace.ns_per_event", "ns");
    ("sim.trace.words_per_event", "words");
    ("sim.fault.ns_per_event", "ns");
    ("sim.fault.parse.share", "ratio");
    ("sim.fault.dropped", "count");
    ("sim.fault.duplicated", "count");
    ("sim.fault.crashes", "count");
    ("sim.fault.recoveries", "count");
    ("sim.fault.corruptions", "count");
    ("sim.fault.emergency_retirements", "count");
    ("sim.store.rpcs", "count");
    ("sim.arrivals.merge.share", "ratio");
    ("counter.schedule.origins.share", "ratio");
    ("counter.hotspot.check.share", "ratio");
    ("counter.hotspot.traces", "count");
    ("counter.history.analyze.share", "ratio");
    ("counter.history.ops", "count");
    ("counter.history.peak_overlap", "count");
    ("counter.history.mean_overlap", "count");
    ("analysis.histogram.summary.share", "ratio");
    ("mc.explore.share", "ratio");
    ("mc.explore.states", "count");
    ("mc.explore.executions", "count");
    ("mc.explore.sleep_skips", "count");
    ("mc.explore.depth_capped", "count");
    ("mc.prune.kept_ratio", "ratio");
    ("bench.cell.share", "ratio");
    ("bench.pass_s", "s");
    ("bench.trace_overhead", "ratio");
  ]

(* Analysis.Json rounds numbers to six digits; run documents and span
   files keep every digit. *)
let rec write buf = function
  | J.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
  | J.Num f when Float.is_finite f ->
      Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | (J.Null | J.Bool _ | J.Num _ | J.Str _) as leaf ->
      Buffer.add_string buf (J.to_string ~indent:0 leaf)
  | J.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | J.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (J.Str k);
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 4096 in
  write buf j;
  Buffer.contents buf

let median = Probes.median

let fmedian f xs = median (List.map f xs)

let run_cell i (cell : Cells.cell) ~traced =
  Span.cell := i;
  Gc.full_major ();
  Span.enter Span.bench_cell;
  match Cells.run ~traced cell with
  | r ->
      ignore (Span.leave ());
      r
  | exception e ->
      Span.unwind ();
      Cells.crashed cell e

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Every cell once, then round-robin until [budget_ns] has passed;
   per-cell samples, oldest first, and the peak heap after the first
   pass (later passes repeat the same allocations, but how many fit
   depends on the machine). *)
let measure ~budget_ns (cells : Cells.cell array) =
  let k = Array.length cells in
  let samples = Array.make k [] in
  let start = Span.now_ns () in
  let i = ref 0 and peak = ref 0. in
  while !i < k || Span.now_ns () - start < budget_ns do
    let c = !i mod k in
    samples.(c) <- run_cell c cells.(c) ~traced:false :: samples.(c);
    incr i;
    if !i = k then peak := peak_heap_mb ()
  done;
  (Array.map List.rev samples, !peak)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* A cell's run time is its fastest sample: on a shared machine
   contention only ever adds time, and between runs the fastest sample
   measured 17-25 % less spread than the median. *)
let fastest (rs : Cells.result list) =
  float
    (List.fold_left (fun m (r : Cells.result) -> min m r.run_ns) max_int rs)

(* End-to-end metrics from per-cell samples, summed over the cells so they
   describe one pass. Set-up time and allocation are per-cell medians;
   message counts and loads are the same in every sample. *)
let end_to_end_metrics (samples : Cells.result list array) ~peak_heap_mb =
  let cells = Array.to_list samples in
  let first = List.map List.hd cells in
  let wall = sum fastest cells /. 1e9 in
  let setup =
    sum (fmedian (fun (r : Cells.result) -> float r.setup_ns)) cells /. 1e9
  in
  let words = sum (fmedian (fun (r : Cells.result) -> r.words)) cells in
  let ops = float (isum (fun (r : Cells.result) -> r.ops) first) in
  let messages = float (isum (fun (r : Cells.result) -> r.messages) first) in
  [
    ("ops_per_s", ops /. wall);
    ("events_per_s", messages /. wall);
    ("wall_s", wall);
    ("setup_s", setup);
    ("words_per_event", words /. messages);
    ("peak_heap_mb", peak_heap_mb);
    ("msgs_per_op", messages /. ops);
    ( "bottleneck_mean",
      sum (fun (r : Cells.result) -> float r.bottleneck) first
      /. float (List.length first) );
  ]

(* The [q]-quantile of sorted ns samples, in microseconds, as the mean of
   the samples ranked within half a percentile of it: sub-microsecond
   calls tie on whole nanoseconds, and a single order statistic would
   read the same value run after run. *)
let percentile_us sorted q =
  let k = Array.length sorted in
  if k = 0 then 0.
  else
    let rank p = max 0 (min (k - 1) (int_of_float (p *. float k))) in
    let lo = rank (q -. 0.005) and hi = rank (q +. 0.005) in
    let total = ref 0 in
    for i = lo to hi do
      total := !total + sorted.(i)
    done;
    float !total /. float (hi - lo + 1) /. 1e3

(* Per-layer figures from the traced passes (and the untraced passes they
   alternated with, for the overhead). *)
let layer_metrics ~untraced ~traced ~probes =
  let passes = float (List.length traced) in
  let results = List.concat_map Array.to_list traced in
  let count name =
    sum
      (fun (r : Cells.result) ->
        Option.value ~default:0. (List.assoc_opt name r.counts))
      results
    /. passes
  in
  let latencies =
    Array.concat (List.map (fun (r : Cells.result) -> r.latencies) results)
  in
  Array.sort compare latencies;
  (* Every delivery happens inside an [inc_result], [launch_at] or
     [run_open] call. *)
  let deliveries =
    count "protocol.inc.deliveries" +. count "protocol.open.deliveries"
  in
  let protocol_ns =
    sum Span.self_seconds
      [ Span.protocol_inc; Span.protocol_launch_at; Span.protocol_run_open ]
    *. 1e9 /. passes
  in
  let network = List.assoc "sim.network.ns_per_event" probes in
  let ops = isum (fun (r : Cells.result) -> r.ops) results in
  let stalled = isum (fun (r : Cells.result) -> r.stalled) results in
  let means =
    List.filter_map (fun (r : Cells.result) -> r.mean_overlap) results
  in
  let states = count "mc.explore.states" in
  let skips = count "mc.explore.sleep_skips" in
  let wall passes =
    let k = Array.length (List.hd passes) in
    sum
      (fun c -> fastest (List.map (fun pass -> pass.(c)) passes))
      (List.init k Fun.id)
  in
  let span_names =
    [
      Span.protocol_create;
      Span.protocol_inc;
      Span.protocol_launch_at;
      Span.protocol_run_open;
      Span.fault_parse;
      Span.arrivals_merge;
      Span.schedule_origins;
      Span.hotspot_check;
      Span.history_analyze;
      Span.histogram_summary;
      Span.mc_explore;
      Span.bench_cell;
    ]
  in
  let counted =
    [
      "protocol.inc.calls";
      "protocol.inc.deliveries";
      "protocol.inc.words";
      "protocol.open.deliveries";
      "protocol.open.words";
      "sim.fault.dropped";
      "sim.fault.duplicated";
      "sim.fault.crashes";
      "sim.fault.recoveries";
      "sim.fault.corruptions";
      "sim.fault.emergency_retirements";
      "sim.store.rpcs";
      "counter.hotspot.traces";
      "counter.history.ops";
      "mc.explore.states";
      "mc.explore.executions";
      "mc.explore.sleep_skips";
      "mc.explore.depth_capped";
    ]
  in
  let figures =
    List.map (fun id -> (Span.name_of id ^ ".share", Span.share id)) span_names
    @ List.map (fun name -> (name, count name)) counted
    @ probes
    @ [
        ("protocol.op.p50_us", percentile_us latencies 0.5);
        ("protocol.op.p99_us", percentile_us latencies 0.99);
        ("protocol.op.samples", float (Array.length latencies) /. passes);
        ( "protocol.handler.ns_per_event",
          (protocol_ns /. deliveries) -. network );
        ( "protocol.stalled_ratio",
          if ops > 0 then float stalled /. float ops else 0. );
        ( "counter.history.peak_overlap",
          float
            (List.fold_left
               (fun m (r : Cells.result) -> max m r.peak_overlap)
               0 results) );
        ( "counter.history.mean_overlap",
          if means = [] then 0.
          else sum Fun.id means /. float (List.length means) );
        ( "mc.prune.kept_ratio",
          if states +. skips > 0. then states /. (states +. skips) else 0. );
        ("bench.pass_s", Span.total_seconds () /. passes);
        ("bench.trace_overhead", (wall traced /. wall untraced) -. 1.);
      ]
  in
  List.map (fun (name, _) -> (name, List.assoc name figures)) per_layer

let traced_passes ~budget_ns (cells : Cells.cell array) =
  Span.reset ();
  let start = Span.now_ns () in
  let pass traced =
    Span.enabled := traced;
    let rs = Array.mapi (fun i c -> run_cell i c ~traced) cells in
    Span.enabled := false;
    rs
  in
  let rec loop untraced traced =
    let t0 = Span.now_ns () in
    let u = pass false in
    let t = pass true in
    let cost = Span.now_ns () - t0 in
    if Span.now_ns () - start + cost <= budget_ns then
      loop (u :: untraced) (t :: traced)
    else (List.rev (u :: untraced), List.rev (t :: traced))
  in
  loop [] []

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  doc : J.t;  (** the run document ([--out]) *)
  spans : J.t option;  (** Chrome trace events, traced runs only *)
}

let with_units table values =
  List.map (fun (name, unit) -> (name, List.assoc name values, unit)) table

let metrics_json metrics =
  J.Obj
    (List.map
       (fun (name, value, unit) ->
         (name, J.Obj [ ("value", J.Num value); ("unit", J.Str unit) ]))
       metrics)

let cell_json (samples : Cells.result list) =
  let r = List.hd samples in
  J.Obj
    [
      ("plan", J.Str r.plan);
      (* a string: Json numbers are doubles and would lose low bits *)
      ("checksum", J.Str (string_of_int r.checksum));
      ("ops", J.int r.ops);
      ("messages", J.int r.messages);
      ("bottleneck", J.int r.bottleneck);
      ("stalled", J.int r.stalled);
      ( "virtual_p99",
        match r.virtual_p99 with Some p -> J.Num p | None -> J.Null );
      ("samples", J.int (List.length samples));
      ( "setup_s",
        J.Num
          (fmedian (fun (r : Cells.result) -> float r.setup_ns) samples /. 1e9)
      );
      ("run_s", J.Num (fastest samples /. 1e9));
    ]

let check_json (samples : Cells.result list) =
  let failed = isum (fun (r : Cells.result) -> r.failed) samples in
  let r = List.hd samples in
  J.Obj
    [
      ("cell", J.Str r.plan);
      ("ok", J.Bool (failed = 0));
      ("failed", J.int failed);
      ( "problems",
        J.List
          (List.sort_uniq compare
             (List.concat_map
                (fun (r : Cells.result) ->
                  List.map (fun s -> J.Str s) r.problems)
                samples)) );
    ]

(* Time left for the probes at the end of a traced run. *)
let probe_reserve_ns = 3_000_000_000

(* [seconds] is the measuring budget: the cycle of cells for an untraced
   run; pass pairs plus probes for a traced one. *)
let run ~(workload : Workloads.t) ~seed ~seconds ~trace ~smoke =
  let cells = Array.of_list workload.cells in
  ignore (run_cell 0 cells.(0) ~traced:false);
  let budget_ns = int_of_float (seconds *. 1e9) in
  let samples, metrics, spans =
    if not trace then
      let samples, peak_heap_mb = measure ~budget_ns cells in
      ( samples,
        with_units end_to_end (end_to_end_metrics samples ~peak_heap_mb),
        None )
    else
      let untraced, traced =
        traced_passes ~budget_ns:(budget_ns - probe_reserve_ns) cells
      in
      let peak =
        List.fold_left
          (fun m (r : Cells.result) -> max m r.peak_overlap)
          0
          (List.concat_map Array.to_list untraced)
      in
      let deep = max 2 (if peak > 0 then peak else workload.probe_n) in
      let probes = Probes.run ~smoke ~n:workload.probe_n ~deep in
      let samples =
        Array.mapi
          (fun c _ -> List.map (fun pass -> pass.(c)) (traced @ untraced))
          cells
      in
      ( samples,
        with_units per_layer (layer_metrics ~untraced ~traced ~probes),
        Some (Span.to_json ()) )
  in
  let all = List.concat (Array.to_list samples) in
  let attempted = isum (fun (r : Cells.result) -> r.attempted) all in
  let failed = isum (fun (r : Cells.result) -> r.failed) all in
  let doc =
    J.Obj
      [
        ("workload", J.Str workload.name);
        ("seed", J.int seed);
        ("seconds", J.Num seconds);
        ("trace", J.Bool trace);
        ("correct", J.Bool (failed = 0));
        ("attempted", J.int attempted);
        ("failed", J.int failed);
        ("metrics", if trace then J.Obj [] else metrics_json metrics);
        ("layers", if trace then metrics_json metrics else J.Obj []);
        ("checks", J.List (Array.to_list (Array.map check_json samples)));
        ("cells", J.List (Array.to_list (Array.map cell_json samples)));
      ]
  in
  { correct = failed = 0; attempted; failed; metrics; doc; spans }
