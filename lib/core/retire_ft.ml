(* Failure-aware retirement-tree counter.

   Same engine as Retire_counter (Retire_plumbing) plus a failure-aware
   client at the operation's origin, reusing the round-stamped attempt
   machinery of the quorum counters' client: every armed timer carries the
   round it was armed in and fires into nothing if the round has moved on.

   One inc under faults runs:

     attempt:  (re)send the Inc up the tree, arm a timeout (doubling,
               initial 32 virtual-time units, at most 8 attempts);
     audit:    on timeout, ping the current worker of every inner node on
               the origin's root path and arm a second timer;
     conclude: workers still silent — or answering from a post-recovery
               identity that was never re-hired (their pre-crash role
               state is stale) — are deposed: each suspect role is
               emergency-retired to a fresh processor, reconstructing the
               lost job description from the parent/children state the
               origin can still reach instead of the normal Handoff from
               the (dead) incumbent; then a fresh attempt starts.

   Replacement processors come first from the rejoin pool (processors
   that crashed and later recovered re-enter the allocator here — they
   never resume their stale roles) and then from the overflow allocator,
   up to an emergency budget of [overflow_pool] hires (default 2n). A
   crashed processor can hold at most two roles (root plus one inner
   node), so f crashes force at most 2f emergency hires: every
   live-origin inc completes whenever crashes < overflow-pool size (see
   docs/FAULTS.md).

   With no fault plan ([Fault.none]) the failure-aware client is disarmed
   and this counter is observably identical — send for send — to
   Retire_counter; the goldens in test_retire_ft.ml pin that. *)

module P = Retire_plumbing

type config = P.config = { arity : int; depth : int; retire_threshold : int }

let paper_config = P.paper_config
let config_n = P.config_n

module Protocol = struct
  type payload = P.payload

  type t = P.t

  let name = "retire-ft"

  let describe =
    "failure-aware retirement tree: timeouts audit the inc path, \
     emergency-retire dead workers, rehire recovered processors (Section 4 \
     + docs/FAULTS.md)"

  let supported_n n = Params.round_up_n (max 1 n)
  let who = "Retire_ft"
  let serialising = true

  (* Virtual-time budget for the first attempt; doubled on every retry. *)
  let initial_timeout = 32.
  let max_attempts = 8

  let next_round st =
    st.P.round <- st.P.round + 1;
    st.P.round

  (* Inner nodes on the origin's path, leaf parent first, root last. *)
  let path_nodes st origin =
    let rec up node acc =
      let acc = node :: acc in
      match Tree.parent st.P.tree node with
      | None -> List.rev acc
      | Some p -> up p acc
    in
    up (Tree.leaf_parent st.P.tree ~leaf:origin) []

  (* Pull processors that recovered since we last looked into the rejoin
     pool, exactly once each ([rejoin_seen] remembers them even after they
     are hired or crash again). *)
  let refresh_rejoin_pool st =
    let fresh =
      List.filter
        (fun p -> not (List.mem p st.P.rejoin_seen))
        (Sim.Network.recovered_processors st.P.net)
    in
    match fresh with
    | [] -> ()
    | _ :: _ ->
        st.P.rejoin_seen <- fresh @ st.P.rejoin_seen;
        st.P.rejoin_pool <- st.P.rejoin_pool @ fresh

  (* Rejoin pool first (free — those processors already exist), then the
     overflow allocator against the emergency budget. *)
  let rec hire_replacement st =
    match st.P.rejoin_pool with
    | p :: rest ->
        st.P.rejoin_pool <- rest;
        if Sim.Network.crashed st.P.net p then hire_replacement st
        else begin
          st.P.fresh_hires <- p :: st.P.fresh_hires;
          Some p
        end
    | [] ->
        if st.P.emergency_hires >= st.P.overflow_pool then None
        else begin
          st.P.emergency_hires <- st.P.emergency_hires + 1;
          let rec first_alive v =
            if Sim.Network.crashed st.P.net v then first_alive (v + 1) else v
          in
          let v = first_alive st.P.overflow_next in
          st.P.overflow_next <- v + 1;
          Some v
        end

  (* Depose a (presumed-dead) worker: re-staff the role and reconstruct its
     job description from the node record — the parent/children state the
     origin can still consult — because the incumbent cannot hand anything
     off. The messages are sent by the detecting origin. Returns false when
     the emergency budget is exhausted (the op will stall). *)
  let emergency_retire st node =
    match hire_replacement st with
    | None ->
        st.P.stall_reason <- Some "emergency overflow pool exhausted";
        false
    | Some successor ->
        let nd = st.P.nodes.(node) in
        (* Part of the reconstruction: the corpse's parent pointer may be
           stale (the corpse could even have been its own parent's worker),
           so the origin re-derives it from the node records. Suspects are
           deposed root-first, so a deposed parent's fresh worker is already
           in place here. *)
        (match Tree.parent st.P.tree node with
        | Some p -> nd.P.believed_parent_worker <- st.P.nodes.(p).P.worker
        | None -> ());
        nd.P.worker <- successor;
        nd.P.age <- 0;
        nd.P.retirements <- nd.P.retirements + 1;
        st.P.total_retirements <- st.P.total_retirements + 1;
        st.P.emergency_nodes_rev <- node :: st.P.emergency_nodes_rev;
        Sim.Metrics.on_emergency_retirement (Sim.Network.metrics st.P.net);
        let src = st.P.cur_origin in
        if st.P.emergency_handoff then begin
          P.send_job_description st nd ~src ~successor;
          P.send_announcements st nd ~src ~successor
        end
        else begin
          (* The deliberately-broken negative control (Baselines.ft-no-handoff):
             the role is re-staffed but the job description is never
             reconstructed — a fresh root worker restarts the count at zero,
             which the model checker catches as a duplicate value. *)
          if node = Tree.root then st.P.value <- 0;
          P.send_announcements st nd ~src ~successor
        end;
        true

  let rec start_attempt st =
    if st.P.attempts >= max_attempts then begin
      ignore (next_round st);
      if st.P.stall_reason = None then
        st.P.stall_reason <-
          Some (Printf.sprintf "gave up after %d attempts" st.P.attempts)
    end
    else begin
      st.P.attempts <- st.P.attempts + 1;
      let r = next_round st in
      let origin = st.P.cur_origin in
      (* Re-read the leaf's parent worker from the node record: the
         New_worker announcement correcting a stale belief may have died
         with its sender, and re-sending into a corpse's mailbox would
         waste the whole attempt. *)
      let lp = Tree.leaf_parent st.P.tree ~leaf:origin in
      st.P.leaf_believed_parent.(origin - 1) <- st.P.nodes.(lp).P.worker;
      P.launch st ~origin ~operation:();
      let timeout = st.P.cur_timeout in
      st.P.cur_timeout <- st.P.cur_timeout *. 2.;
      Sim.Network.schedule_local st.P.net ~delay:timeout (fun () ->
          if st.P.round = r && not st.P.op_served then start_audit st)
    end

  and start_audit st =
    if Sim.Network.crashed st.P.net st.P.cur_origin then begin
      ignore (next_round st);
      st.P.stall_reason <- Some "origin crashed mid-operation"
    end
    else begin
      let r = next_round st in
      let origin = st.P.cur_origin in
      let pend =
        List.map
          (fun node -> (node, st.P.nodes.(node).P.worker))
          (path_nodes st origin)
      in
      st.P.audit_pending <- pend;
      List.iter
        (fun (node, w) ->
          Sim.Network.send st.P.net ~src:origin ~dst:w
            (P.Ping { node; round = r }))
        pend;
      Sim.Network.schedule_local st.P.net ~delay:st.P.cur_timeout (fun () ->
          if st.P.round = r then conclude_audit st)
    end

  and conclude_audit st =
    if Sim.Network.crashed st.P.net st.P.cur_origin then begin
      ignore (next_round st);
      st.P.stall_reason <- Some "origin crashed mid-operation"
    end
    else begin
      ignore (next_round st);
      refresh_rejoin_pool st;
      (* Depose root-first: a node's emergency handoff reads its parent's
         current worker, so parents must be re-staffed before children. *)
      let suspects = List.rev st.P.audit_pending in
      st.P.audit_pending <- [];
      let ok =
        List.fold_left
          (fun ok (node, w) ->
            (* Depose only the worker we actually pinged: if the role was
               re-staffed while the audit was out (a normal retirement
               overtook it), the new worker is innocent. *)
            if ok && st.P.nodes.(node).P.worker = w then emergency_retire st node
            else ok)
          true suspects
      in
      if ok then begin
        (* Repair dead-stale route pointers along the path: a live path
           node may still believe its parent is served by a corpse (the
           announcement that would have re-addressed it died with its
           sender — stale-forwarding only helps when the old worker is
           alive to forward). One New_worker message per broken link,
           sent by the auditing origin, re-addresses the route. *)
        let origin = st.P.cur_origin in
        List.iter
          (fun node ->
            match Tree.parent st.P.tree node with
            | None -> ()
            | Some parent ->
                let nd = st.P.nodes.(node) in
                let current = st.P.nodes.(parent).P.worker in
                if
                  nd.P.believed_parent_worker <> current
                  && Sim.Network.crashed st.P.net nd.P.believed_parent_worker
                then
                  Sim.Network.send st.P.net ~src:origin ~dst:nd.P.worker
                    (P.New_worker
                       { about = parent; worker = current; dest = P.To_node node }))
          (path_nodes st origin);
        start_attempt st
      end
    end

  let handle st ~reply ~self ~src payload =
    match payload with
    | P.Pong { node; round } ->
        if st.P.failure_aware && round = st.P.round then begin
          (* A pong from a processor that crashed and recovered but was
             never re-hired is tainted: its role state predates the
             crash. Leave it on the suspect list — the audit deposes it
             and the allocator re-hires it into a fresh role instead. *)
          let tainted =
            Sim.Network.recovered st.P.net src
            && not (List.mem src st.P.fresh_hires)
          in
          if not tainted then
            st.P.audit_pending <-
              List.filter (fun (nd, _) -> nd <> node) st.P.audit_pending
        end
    | P.Value _ ->
        P.handle st ~reply ~self ~src payload;
        (* Operation complete: invalidate every armed timer. *)
        if st.P.failure_aware && self = st.P.cur_origin then
          ignore (next_round st)
    | _ -> P.handle st ~reply ~self ~src payload

  let create_with ?seed ?delay ?faults ?(emergency_handoff = true)
      ?overflow_pool cfg =
    let failure_aware =
      match faults with Some f -> not (Sim.Fault.is_none f) | None -> false
    in
    P.create_state ?seed ?delay ?faults ~failure_aware ~emergency_handoff
      ?overflow_pool ~who cfg

  let create ?seed ?delay ?faults ~n () =
    create_with ?seed ?delay ?faults (P.config_of_n ~who n)

  let start st ~reply:_ ~op:_ ~origin =
    if not st.P.failure_aware then P.launch st ~origin ~operation:()
    else begin
      st.P.cur_origin <- origin;
      st.P.op_served <- false;
      st.P.stall_reason <- None;
      st.P.attempts <- 0;
      st.P.cur_timeout <- initial_timeout;
      st.P.emergency_nodes_rev <- [];
      st.P.audit_pending <- [];
      refresh_rejoin_pool st;
      if Sim.Network.crashed st.P.net origin then
        st.P.stall_reason <- Some "origin processor is crashed"
      else start_attempt st
    end

  let verdict st ~origin first =
    if not st.P.failure_aware then P.verdict ~who first
    else begin
      ignore (next_round st);
      match first with
      | Some value -> value
      | None ->
          let reason =
            match st.P.stall_reason with
            | Some r -> r
            | None ->
                (* The audit machinery only records a reason when it runs;
                   an origin that dies after being served (its value
                   message dropped on delivery) leaves no reason behind. *)
                if Sim.Network.crashed st.P.net origin then
                  "origin crashed mid-operation"
                else "no value returned"
          in
          raise (Counter.Counter_intf.Stall ("Retire_ft.inc: " ^ reason))
    end

  let net = P.net
  let value = P.value
  let copy = P.copy
end

include Counter.Host.Make (Protocol)

let create_with ?seed ?delay ?faults ?emergency_handoff ?overflow_pool cfg =
  host
    (Protocol.create_with ?seed ?delay ?faults ?emergency_handoff
       ?overflow_pool cfg)

include P.Observe (struct
  type host = t

  let core = core
end)

let failure_aware t = (core t).P.failure_aware
let emergency_hires t = (core t).P.emergency_hires
let rejoin_pool t = (core t).P.rejoin_pool
let last_attempts t = max 1 (core t).P.attempts
