module Make (C : Counter_intf.CORE) = struct
  type t = {
    core : C.t;
    net : C.payload Sim.Network.t;
    reply : Counter_intf.reply;
    mutable traces_rev : Sim.Trace.t list;
    mutable closing : bool;  (* a closed-loop operation is running *)
    mutable first : int option;  (* its first reply *)
    mutable done_rev : (int * int * float) list;  (* op, value, time *)
  }

  let name = C.name
  let describe = C.describe
  let supported_n = C.supported_n

  (* A closed operation keeps only its first value; every other reply is
     an open-loop or batch completion. *)
  let record h ~op v =
    if h.closing then (
      match h.first with None -> h.first <- Some v | Some _ -> ())
    else h.done_rev <- (op, v, Sim.Network.now h.net) :: h.done_rev

  let host core =
    let net = C.net core in
    let rec h =
      {
        core;
        net;
        reply = (fun ~op v -> record h ~op v);
        traces_rev = [];
        closing = false;
        first = None;
        done_rev = [];
      }
    in
    let reply = h.reply in
    Sim.Network.set_handler net (fun ~self ~src payload ->
        C.handle core ~reply ~self ~src payload);
    h

  let create ?seed ?delay ?faults ~n () =
    host (C.create ?seed ?delay ?faults ~n ())

  let core h = h.core
  let n h = Sim.Network.n h.net
  let value h = C.value h.core
  let metrics h = Sim.Network.metrics h.net
  let traces h = List.rev h.traces_rev
  let crashed h p = Sim.Network.crashed h.net p

  let check_origin h origin =
    if origin < 1 || origin > n h then
      invalid_arg (C.who ^ ": origin out of range")

  (* One closed-loop operation run to quiescence; its first reply is left
     in [h.first] for [C.verdict]. *)
  let serve h ~origin =
    h.closing <- true;
    h.first <- None;
    C.start h.core ~reply:h.reply ~op:(-1) ~origin;
    ignore (Sim.Network.run_to_quiescence h.net);
    h.closing <- false

  let inc h ~origin =
    check_origin h origin;
    Sim.Network.begin_op h.net ~origin;
    serve h ~origin;
    h.traces_rev <- Sim.Network.end_op h.net :: h.traces_rev;
    C.verdict h.core ~origin h.first

  let inc_result h ~origin = Counter_intf.result_of_inc (fun () -> inc h ~origin)

  let launch_at h ~op ~origin ~at =
    check_origin h origin;
    let delay = at -. Sim.Network.now h.net in
    if C.serialising then begin
      (* Idle until the arrival (a no-op timer charges no load), then
         serve the operation to completion: queueing delay shows up in
         its completion time. Untraced: nothing reads an open-loop
         operation's trace, and keeping one per operation would hold
         every delivery of the run. *)
      if delay > 0. then begin
        Sim.Network.schedule_local h.net ~delay ignore;
        ignore (Sim.Network.run_to_quiescence h.net)
      end;
      serve h ~origin;
      match
        Counter_intf.result_of_inc (fun () -> C.verdict h.core ~origin h.first)
      with
      | Counter_intf.Completed v ->
          h.done_rev <- (op, v, Sim.Network.now h.net) :: h.done_rev
      | Counter_intf.Stalled _ -> ()
    end
    else begin
      if delay < 0. then invalid_arg (C.who ^ ".launch_at: arrival in the past");
      Sim.Network.schedule_local h.net ~delay (fun () ->
          C.start h.core ~reply:h.reply ~op ~origin)
    end

  let run_open h = ignore (Sim.Network.run_to_quiescence h.net)
  let completions h = List.rev h.done_rev

  (* One traced operation; batch members are named by their (distinct)
     origins. Returns (origin, value, time) in completion order. *)
  let batch h ~stagger ~origins =
    let first =
      match origins with
      | o :: _ -> o
      | [] -> invalid_arg (C.who ^ ".run_batch: empty batch")
    in
    List.iter (check_origin h) origins;
    if List.length (List.sort_uniq Int.compare origins) <> List.length origins
    then invalid_arg (C.who ^ ".run_batch: duplicate origins in a batch");
    Sim.Network.begin_op h.net ~origin:first;
    let outside = h.done_rev in
    h.done_rev <- [];
    List.iteri
      (fun i origin ->
        if Float.equal stagger 0. then
          C.start h.core ~reply:h.reply ~op:origin ~origin
        else
          Sim.Network.schedule_local h.net
            ~delay:(float_of_int i *. stagger)
            (fun () -> C.start h.core ~reply:h.reply ~op:origin ~origin))
      origins;
    ignore (Sim.Network.run_to_quiescence h.net);
    h.traces_rev <- Sim.Network.end_op h.net :: h.traces_rev;
    let done_ = List.rev h.done_rev in
    h.done_rev <- outside;
    done_

  let run_batch h ~origins =
    List.map (fun (o, v, _) -> (o, v)) (batch h ~stagger:0. ~origins)

  let run_batch_timed h ?(stagger = 0.) ~origins () =
    let start = Sim.Network.now h.net in
    let invoked = Hashtbl.create (List.length origins) in
    List.iteri
      (fun i o -> Hashtbl.replace invoked o (start +. (float_of_int i *. stagger)))
      origins;
    List.map
      (fun (origin, value, completed_at) ->
        {
          History.origin;
          value;
          invoked_at = Hashtbl.find invoked origin;
          completed_at;
        })
      (batch h ~stagger ~origins)

  let clone h =
    let core = C.copy h.core (Sim.Network.clone_quiescent h.net) in
    let h' = host core in
    h'.traces_rev <- h.traces_rev;
    h'.done_rev <- h.done_rev;
    h'
end
