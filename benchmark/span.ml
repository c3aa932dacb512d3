(* Spans recorded around the benchmark's calls into each library layer.

   A span has a layer name, a start and stop in monotonic nanoseconds,
   its own id, its parent's id, and the cell and operation it served, so
   every span of one operation shares an id. Self time (the span's
   duration minus the part its child spans cover) is summed per name as
   spans close, and the outermost spans' durations are summed too, so
   each name's share of the traced time is known. The spans themselves
   are kept in memory up to [capacity] and written as Chrome trace-event
   JSON when the run ends. With [enabled] false, [enter] and [leave] do
   nothing but test the flag. *)

external now_ns : unit -> (int[@untagged])
  = "bench_now_ns_byte" "bench_now_ns"
[@@noalloc]

let enabled = ref false

(* Layer names, interned so that closing a span indexes arrays instead of
   hashing a string. *)
let names = ref [||]

let register name =
  names := Array.append !names [| name |];
  Array.length !names - 1

let name_of id = !names.(id)

let protocol_create = register "protocol.create"
let protocol_inc = register "protocol.inc"
let protocol_launch_at = register "protocol.launch_at"
let protocol_run_open = register "protocol.run_open"
let fault_parse = register "sim.fault.parse"
let arrivals_merge = register "sim.arrivals.merge"
let schedule_origins = register "counter.schedule.origins"
let hotspot_check = register "counter.hotspot.check"
let history_analyze = register "counter.history.analyze"
let histogram_summary = register "analysis.histogram.summary"
let mc_explore = register "mc.explore"
let bench_cell = register "bench.cell"

let max_depth = 64
let st_name = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_id = Array.make max_depth 0
let st_op = Array.make max_depth (-1)
let depth = ref 0
let next_id = ref 0
let cell = ref (-1)
let self_ns = Array.make 32 0
let total_ns = ref 0

(* Recorded spans, seven ints each: name, start, stop, id, parent, cell,
   op. *)
let capacity = 20_000
let fields = 7
let buf = Array.make (capacity * fields) 0
let recorded = ref 0
let dropped = ref 0

let reset () =
  depth := 0;
  next_id := 0;
  cell := -1;
  recorded := 0;
  dropped := 0;
  total_ns := 0;
  Array.fill self_ns 0 (Array.length self_ns) 0

(* [op] < 0 inherits the enclosing span's operation. *)
let enter ?(op = -1) name =
  if !enabled then begin
    let d = !depth in
    incr next_id;
    st_name.(d) <- name;
    st_child.(d) <- 0;
    st_id.(d) <- !next_id;
    st_op.(d) <- (if op >= 0 || d = 0 then op else st_op.(d - 1));
    depth := d + 1;
    st_start.(d) <- now_ns ()
  end

(* Closes the innermost span and returns its duration in ns (0 when
   tracing is off). *)
let leave () =
  if not !enabled then 0
  else begin
    let stop = now_ns () in
    let d = !depth - 1 in
    depth := d;
    let name = st_name.(d) and start = st_start.(d) in
    let dur = stop - start in
    self_ns.(name) <- self_ns.(name) + dur - st_child.(d);
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur
    else total_ns := !total_ns + dur;
    if !recorded < capacity then begin
      let o = !recorded * fields in
      buf.(o) <- name;
      buf.(o + 1) <- start;
      buf.(o + 2) <- stop;
      buf.(o + 3) <- st_id.(d);
      buf.(o + 4) <- (if d > 0 then st_id.(d - 1) else 0);
      buf.(o + 5) <- !cell;
      buf.(o + 6) <- st_op.(d);
      incr recorded
    end
    else incr dropped;
    dur
  end

(* Drop the spans an exception left open. *)
let unwind () = depth := 0

let self_seconds name = float_of_int self_ns.(name) /. 1e9
let total_seconds () = float_of_int !total_ns /. 1e9

(* Fraction of the time inside outermost spans that [name] spent in its
   own code; over every name the shares sum to 1. *)
let share name =
  if !total_ns = 0 then 0.
  else float_of_int self_ns.(name) /. float_of_int !total_ns

(* Chrome trace-event JSON ("X" complete events, microsecond times). *)
let to_json () =
  let module J = Analysis.Json in
  let origin = ref max_int in
  for i = 0 to !recorded - 1 do
    origin := min !origin buf.((i * fields) + 1)
  done;
  let origin = !origin in
  let us ns = J.Num (float_of_int ns /. 1e3) in
  let event i =
    let f k = buf.((i * fields) + k) in
    J.Obj
      [
        ("name", J.Str (name_of (f 0)));
        ("ph", J.Str "X");
        ("ts", us (f 1 - origin));
        ("dur", us (f 2 - f 1));
        ("pid", J.int 1);
        ("tid", J.int 1);
        ( "args",
          J.Obj
            [
              ("id", J.int (f 3));
              ("parent", J.int (f 4));
              ("cell", J.int (f 5));
              ("op", J.int (f 6));
            ] );
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.init !recorded event));
      ("displayTimeUnit", J.Str "ns");
      ("otherData", J.Obj [ ("dropped_spans", J.int !dropped) ]);
    ]
