type violation = {
  first_op : int;
  second_op : int;
  first_origin : int;
  second_origin : int;
}

let violation (a, b) =
  {
    first_op = Sim.Trace.op_index a;
    second_op = Sim.Trace.op_index b;
    first_origin = Sim.Trace.origin a;
    second_origin = Sim.Trace.origin b;
  }

let check traces = List.map violation (Sim.Trace.disjoint_pairs traces)

let holds = Sim.Trace.chain_intersects

(* Dropping the message-less fault-free traces joins the segments they
   sat in; a pair that touches a faulted trace crosses a segment
   boundary, so it is excused. *)
let check_under_faults traces =
  let clean t = Sim.Trace.fault_count t = 0 in
  List.filter (fun t -> (not (clean t)) || Sim.Trace.message_count t > 0) traces
  |> Sim.Trace.disjoint_pairs
  |> List.filter_map (fun (a, b) ->
         if clean a && clean b then Some (violation (a, b)) else None)

let pp_violation ppf v =
  Format.fprintf ppf
    "ops #%d (by p%d) and #%d (by p%d) touch disjoint processor sets"
    v.first_op v.first_origin v.second_op v.second_origin
