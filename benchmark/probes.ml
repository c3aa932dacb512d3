(* Probes that split the cost of one delivery across the simulator's
   layers, by running the same synthetic load with one layer switched at a
   time. They run only in the traced run, at the traced workload's
   network size and queue depth.

   The relay is the engine benchmark's protocol: each message carries a
   hop budget and the receiver forwards it to a scrambled next
   destination until the budget is spent. Its three variants differ in
   one layer each:
   - bare: [Fault.none], no operation open (heap, links, metrics,
     dispatch);
   - traced: an operation held open, so [Sim.Trace] records every
     delivery;
   - faulted: a plan whose only crash fires at t = 1e18, so the fault
     layer checks every delivery but never acts. *)

let now = Span.now_ns

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

type variant = Bare | Traced | Faulted

let inert_plan =
  {
    Sim.Fault.none with
    Sim.Fault.crashes =
      [ { Sim.Fault.processor = 1; trigger = Sim.Fault.At 1e18 } ];
  }

(* Returns (ns per delivery, words per delivery). *)
let relay variant ~n ~events =
  let faults = if variant = Faulted then inert_plan else Sim.Fault.none in
  let net = Sim.Network.create ~seed:99 ~faults ~n () in
  let injections = min n 256 in
  let hops = max 1 (events / injections) in
  Sim.Network.set_handler net (fun ~self ~src:_ hops ->
      if hops > 0 then
        let dst = 1 + (((self * 2654435761) + hops) mod n) in
        Sim.Network.send net ~src:self ~dst (hops - 1));
  if variant = Traced then Sim.Network.begin_op net ~origin:1;
  for i = 1 to injections do
    Sim.Network.send net ~src:i ~dst:(1 + (i * 7919 mod n)) hops
  done;
  Gc.full_major ();
  let w0 = Cells.allocated_words () in
  let t0 = now () in
  let steps = Sim.Network.run_to_quiescence net in
  let dt = now () - t0 in
  let dw = Cells.allocated_words () -. w0 in
  if variant = Traced then ignore (Sim.Network.end_op net);
  let per x = x /. float_of_int steps in
  (per (float_of_int dt), per dw)

(* Steady-state pop-then-push at a fixed queue depth; ns per pair. *)
let heap ~depth ~ops =
  let h = Sim.Heap.create ~capacity:depth () in
  let rng = Sim.Rng.create ~seed:7 in
  let gaps = Array.init 4096 (fun _ -> 0.5 +. Sim.Rng.float rng 1.0) in
  for i = 1 to depth do
    Sim.Heap.push h ~prio:(Sim.Rng.float rng 1.0) i
  done;
  let t0 = now () in
  for i = 1 to ops do
    let p = Sim.Heap.top_prio h in
    let v = Sim.Heap.pop_top h in
    Sim.Heap.push h ~prio:(p +. gaps.(i land 4095)) v
  done;
  float_of_int (now () - t0) /. float_of_int ops

(* Per-layer figures as (name, value); relay variants interleave so that
   machine drift hits them alike, and each figure is a median. *)
let run ~smoke ~n ~deep =
  let reps = if smoke then 1 else 5 in
  let events = if smoke then 20_000 else 200_000 in
  let heap_ops = if smoke then 100_000 else 2_000_000 in
  let samples = Hashtbl.create 8 in
  let add k v =
    Hashtbl.replace samples k
      (v :: Option.value ~default:[] (Hashtbl.find_opt samples k))
  in
  for _ = 1 to reps do
    List.iter
      (fun (tag, variant) ->
        let ns, words = relay variant ~n ~events in
        add (tag ^ ".ns") ns;
        add (tag ^ ".words") words)
      [ ("bare", Bare); ("traced", Traced); ("faulted", Faulted) ];
    add "shallow" (heap ~depth:2 ~ops:heap_ops);
    add "deep" (heap ~depth:deep ~ops:heap_ops)
  done;
  let m k = median (Hashtbl.find samples k) in
  [
    ("sim.network.ns_per_event", m "bare.ns");
    ("sim.network.words_per_event", m "bare.words");
    ("sim.trace.ns_per_event", m "traced.ns" -. m "bare.ns");
    ("sim.trace.words_per_event", m "traced.words" -. m "bare.words");
    ("sim.fault.ns_per_event", m "faulted.ns" -. m "bare.ns");
    ("sim.heap.ns_per_op.shallow", m "shallow");
    ("sim.heap.ns_per_op.deep", m "deep");
  ]
