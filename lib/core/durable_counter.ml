(* WAL-backed durable counter on the simulated object store.

   Topology: processors [1 .. n] are origins; processor 1 doubles as the
   single writer; processor n+1 hosts the {!Sim.Store} (an overflow
   processor in the metrics, like a hired helper — the store is a
   service you pay message load to talk to). Origins send their
   increment to the writer; the writer assigns the value (= LSN),
   appends a record to the active WAL chunk with a compare-and-swap,
   and only acks the origin once the append is durable. Chunks roll via
   a CAS-guarded manifest, snapshots materialize count + dedup table,
   and GC deletes covered chunks — the oswald decomposition (Counter /
   LogChunk / Manifest / Snapshot / GarbageCollector); layout and
   recovery procedure in docs/DURABILITY.md.

   Crash-recovery without amnesia: when the writer is revived by
   [recover:1@T], the first delivery that reaches it detects the
   revival ({!Sim.Network.recoveries_of}), wipes the (lost) volatile
   state, fences older incarnations by CAS-bumping the manifest epoch,
   and re-reads manifest + snapshot + live chunks to resume the exact
   pre-crash count. Origin retries replay idempotently through the
   per-origin (op, value) dedup table, so a retried increment whose
   first append survived is re-acked, never re-applied.

   Failure-awareness mirrors Retire_ft: with [Fault.none] the client is
   disarmed — straight-line RPCs, no timers, zero Rng draws, runs
   bit-identical to the golden. Under a plan, origins retry with
   doubling timeouts and the writer retries store RPCs the same way;
   every timer is round-stamped and fires into nothing once the round
   moves on. [~cas:false] is the deliberately broken negative control
   ([durable-no-cas] in the registry): every conditional write becomes
   a blind put, and a delayed duplicate of a stale append can overwrite
   a newer chunk — the lost update the stored counterexample in
   test/data/ pins. *)

module Protocol = struct
  type payload =
    | Inc_req of { origin : int; oseq : int }
    | Inc_ack of { oseq : int; value : int }
    | S_req of { rid : int; req : Sim.Store.request }
    | S_resp of { rid : int; resp : Sim.Store.response }

  let label = function
    | Inc_req _ -> "inc"
    | Inc_ack _ -> "ack"
    | S_req { req; _ } -> "s:" ^ Sim.Store.request_label req
    | S_resp { resp; _ } -> "r:" ^ Sim.Store.response_label resp

  type phase = Ready | Recovering

  type t = {
    net : payload Sim.Network.t;
    store : Sim.Store.t;
    monitor : Wal.Monitor.t;
    n : int;
    writer : int;
    store_id : int;
    cas : bool;
    chunk_records : int;
    snap_every : int;
    armed : bool;
    max_attempts : int;
    (* --- writer state (conceptually volatile: wiped on recovery) --- *)
    mutable phase : phase;
    mutable round : int;  (* writer incarnation; bumped by recovery *)
    mutable count : int;  (* next value = next LSN *)
    mutable table : (int * (int * int)) list;  (* origin -> (op, value) *)
    mutable manifest : Wal.manifest;
    mutable manifest_exists : bool;
    mutable active_chunk : Wal.chunk option;  (* None = object absent *)
    mutable inc_queue : (int * int) list;  (* (origin, oseq), FIFO *)
    mutable busy : bool;
    mutable rid : int;  (* never reset: stale responses must not collide *)
    mutable inflight :
      (int * Sim.Store.request * (Sim.Store.response -> unit)) option;
    mutable rpc_attempts : int;
    mutable rpc_timeout : float;
    mutable known_recoveries : int;
    mutable wedged : string option;
    (* --- origin / driver state --- *)
    oseqs : int array;  (* per-origin op sequence, index = origin *)
    mutable op_round : int;  (* bumped at op end; stamps origin timers *)
    mutable cur_origin : int;
    mutable op_served : bool;
    mutable op_value : int;
    mutable op_attempts : int;
    mutable op_timeout : float;
    mutable stall_reason : string option;
    (* --- bookkeeping --- *)
    mutable replays : int;  (* completed WAL recoveries *)
  }

  let name = "durable"

  let describe =
    "WAL-backed writer on a simulated object store; recovers its exact \
     count from manifest+snapshot+chunks after crash"

  let supported_n n = max 1 n

  let who = "Durable_counter"

  let serialising = true

  let initial_timeout = 32.

  let default_chunk_records = 8

  let default_snap_every = 16

  let stall reason = raise (Counter.Counter_intf.Stall ("Durable_counter.inc: " ^ reason))

  let wedge st reason =
    if st.wedged = None then st.wedged <- Some reason;
    if st.stall_reason = None then st.stall_reason <- Some reason;
    st.busy <- false

  (* ------------------------------------------------------------------ *)
  (* Store RPC layer: one request in flight at a time, retried with
     doubling timeouts when armed. Responses are matched by rid; stale or
     duplicated responses fall through. An [Unavailable] during an outage
     window is deliberately not dispatched — the armed retry timer
     re-sends until the window closes or attempts run out. *)

  let rec send_rpc st rid req =
    st.rpc_attempts <- st.rpc_attempts + 1;
    Sim.Network.send st.net ~src:st.writer ~dst:st.store_id (S_req { rid; req });
    if st.armed then begin
      let r = st.round in
      let timeout = st.rpc_timeout in
      st.rpc_timeout <- st.rpc_timeout *. 2.;
      Sim.Network.schedule_local st.net ~delay:timeout (fun () ->
          if r = st.round && not (Sim.Network.crashed st.net st.writer) then
            match st.inflight with
            | Some (rid', req', _) when rid' = rid ->
                if st.rpc_attempts >= st.max_attempts then begin
                  (* Abandon this pipeline, not the counter: the popped
                     increment was never acked (so nothing is lost) and
                     the origin's own retry re-enqueues it. An abandoned
                     recovery re-arms the revival detector so the next
                     delivery restarts it from scratch. *)
                  st.inflight <- None;
                  st.busy <- false;
                  if st.stall_reason = None then
                    st.stall_reason <-
                      Some
                        (Printf.sprintf
                           "gave up: store unreachable after %d attempts"
                           st.rpc_attempts);
                  match st.phase with
                  | Recovering -> st.known_recoveries <- st.known_recoveries - 1
                  | Ready -> ()
                end
                else send_rpc st rid req'
            | Some _ | None -> ())
    end

  let rpc st req k =
    st.rid <- st.rid + 1;
    st.inflight <- Some (st.rid, req, k);
    st.rpc_attempts <- 0;
    st.rpc_timeout <- initial_timeout;
    send_rpc st st.rid req

  (* ------------------------------------------------------------------ *)
  (* Manifest writes: advance to a monotone target (computed against the
     current cached manifest by a join function [f], so retries after a
     conflict adoption stay idempotent). A CAS conflict means our cache is
     stale — adopt the store's actual content and re-check; if the target
     is already satisfied (our own lost-response retry landed) the write
     is done. Without CAS this is a blind put — the negative control. *)

  let manifest_geq (a : Wal.manifest) (b : Wal.manifest) =
    a.epoch >= b.epoch && a.snap >= b.snap && a.low >= b.low
    && a.active >= b.active

  let rec manifest_advance st f k =
    let m' = f st.manifest in
    if st.manifest_exists && manifest_geq st.manifest m' then k ()
    else begin
      let value = Wal.encode_manifest m' in
      let req =
        if st.cas then
          Sim.Store.Cas
            {
              key = Wal.manifest_key;
              expect =
                (if st.manifest_exists then
                   Some (Wal.encode_manifest st.manifest)
                 else None);
              value;
            }
        else Sim.Store.Put { key = Wal.manifest_key; value }
      in
      rpc st req (function
        | Sim.Store.Written ->
            st.manifest_exists <- true;
            st.manifest <- m';
            k ()
        | Sim.Store.Conflict None ->
            st.manifest_exists <- false;
            manifest_advance st f k
        | Sim.Store.Conflict (Some enc) -> (
            match Wal.decode_manifest enc with
            | Ok cm ->
                st.manifest_exists <- true;
                st.manifest <- cm;
                manifest_advance st f k
            | Error e -> wedge st ("manifest corrupt: " ^ e))
        | _ -> wedge st "unexpected store response to manifest write")
    end

  (* ------------------------------------------------------------------ *)
  (* Append pipeline. One increment at a time: roll the chunk if full,
     CAS the record in, reconcile conflicts (a conflict is always our own
     earlier write — a retried append whose response was lost, or a
     pre-crash append landing late), then ack, then snapshot/GC
     maintenance, then the next queued increment. *)

  let merge_record st (r : Wal.record) =
    let newer =
      match List.assoc_opt r.origin st.table with
      | Some (op, _) -> r.op > op
      | None -> true
    in
    if newer then st.table <- Wal.table_set st.table r.origin (r.op, r.lsn)

  let adopt_chunk st (c : Wal.chunk) =
    st.active_chunk <- Some c;
    st.count <- max st.count (c.base + List.length c.recs);
    List.iter (fun r -> merge_record st r) c.recs

  let rec do_append st ~origin ~oseq k =
    match List.assoc_opt origin st.table with
    | Some (op, v) when op >= oseq -> k v  (* already durable: replay ack *)
    | _ -> (
        match st.active_chunk with
        | Some c when List.length c.recs >= st.chunk_records ->
            (* Roll before appending; also heals a crash that died between
               filling a chunk and advancing the manifest. *)
            let desired = st.manifest.active + 1 in
            manifest_advance st
              (fun m -> { m with Wal.active = max m.Wal.active desired })
              (fun () ->
                st.active_chunk <- None;
                do_append st ~origin ~oseq k)
        | cur ->
            let base =
              match cur with
              | Some c -> c.Wal.base
              | None -> st.manifest.Wal.active * st.chunk_records
            in
            let lsn = st.count in
            let rec_ = { Wal.lsn; origin; op = oseq } in
            let recs = match cur with Some c -> c.Wal.recs | None -> [] in
            let next = { Wal.base; recs = recs @ [ rec_ ] } in
            let key = Wal.chunk_key st.manifest.Wal.active in
            let value = Wal.encode_chunk next in
            let req =
              if st.cas then
                Sim.Store.Cas
                  {
                    key;
                    expect = Option.map Wal.encode_chunk cur;
                    value;
                  }
              else Sim.Store.Put { key; value }
            in
            rpc st req (function
              | Sim.Store.Written ->
                  st.active_chunk <- Some next;
                  st.count <- lsn + 1;
                  st.table <- Wal.table_set st.table origin (oseq, lsn);
                  k lsn
              | Sim.Store.Conflict None ->
                  (* Expected content, found nothing: resync and retry. *)
                  st.active_chunk <- None;
                  do_append st ~origin ~oseq k
              | Sim.Store.Conflict (Some enc) -> (
                  match Wal.decode_chunk enc with
                  | Ok c ->
                      (* Adopt what actually landed; the dedup re-check at
                         the top treats our own lost-response write as
                         done instead of applying it twice. *)
                      adopt_chunk st c;
                      do_append st ~origin ~oseq k
                  | Error e -> wedge st ("chunk corrupt: " ^ e))
              | _ -> wedge st "unexpected store response to append"))

  let ack_origin st ~origin ~oseq ~value =
    Wal.Monitor.note_ack st.monitor value;
    if origin = st.writer then begin
      if
        st.cur_origin = origin
        && oseq = st.oseqs.(origin)
        && not st.op_served
      then begin
        st.op_served <- true;
        st.op_value <- value
      end
    end
    else Sim.Network.send st.net ~src:st.writer ~dst:origin (Inc_ack { oseq; value })

  let rec maybe_snapshot st k =
    if st.count - st.manifest.Wal.snap >= st.snap_every then begin
      let s = { Wal.covered = st.count; table = st.table } in
      rpc st
        (Sim.Store.Put
           { key = Wal.snap_key st.count; value = Wal.encode_snapshot s })
        (function
          | Sim.Store.Written ->
              let prev_snap = st.manifest.Wal.snap in
              manifest_advance st
                (fun m -> { m with Wal.snap = max m.Wal.snap s.Wal.covered })
                (fun () ->
                  if prev_snap > 0 then
                    rpc st (Sim.Store.Delete (Wal.snap_key prev_snap)) (function
                      | Sim.Store.Deleted -> k ()
                      | _ -> wedge st "unexpected store response to snap GC")
                  else k ())
          | _ -> wedge st "unexpected store response to snapshot")
    end
    else k ()

  and maybe_gc st k =
    (* Chunk j is fully covered once (j+1) * chunk_records <= snap. *)
    let new_low =
      min (st.manifest.Wal.snap / st.chunk_records) st.manifest.Wal.active
    in
    if new_low > st.manifest.Wal.low then begin
      let old_low = st.manifest.Wal.low in
      manifest_advance st
        (fun m -> { m with Wal.low = max m.Wal.low new_low })
        (fun () -> delete_chunks st old_low (new_low - 1) k)
    end
    else k ()

  and delete_chunks st idx last k =
    if idx > last then k ()
    else
      rpc st (Sim.Store.Delete (Wal.chunk_key idx)) (function
        | Sim.Store.Deleted -> delete_chunks st (idx + 1) last k
        | _ -> wedge st "unexpected store response to chunk GC")

  let rec process_next st =
    match st.phase with
    | Recovering -> ()
    | Ready -> (
        if not st.busy then
          match st.inc_queue with
          | [] -> ()
          | (origin, oseq) :: rest ->
              st.inc_queue <- rest;
              st.busy <- true;
              do_append st ~origin ~oseq (fun value ->
                  ack_origin st ~origin ~oseq ~value;
                  maybe_snapshot st (fun () ->
                      maybe_gc st (fun () ->
                          st.busy <- false;
                          process_next st))))

  let enqueue st ~origin ~oseq =
    if
      not
        (List.exists (fun (o, s) -> o = origin && s = oseq) st.inc_queue)
    then st.inc_queue <- st.inc_queue @ [ (origin, oseq) ]

  (* ------------------------------------------------------------------ *)
  (* Recovery: triggered by the first delivery reaching the writer after
     a revival. Wipe the volatile state, bump the incarnation round (every
     armed writer timer dies), then over RPCs: read the manifest
     (CAS-creating it if the store is virgin), fence older incarnations by
     bumping the epoch, fetch the snapshot, list-and-fetch the live
     chunks, and replay — the same {!Wal.replay} the offline audit uses.
     Increments that arrive meanwhile queue behind the recovery. *)

  let recovery_failed st e =
    wedge st ("recovery failed: " ^ e)

  let rec start_recovery st =
    st.round <- st.round + 1;
    st.phase <- Recovering;
    st.busy <- false;
    st.inflight <- None;
    st.inc_queue <- [];
    st.count <- 0;
    st.table <- [];
    st.manifest <- Wal.initial_manifest;
    st.manifest_exists <- false;
    st.active_chunk <- None;
    rpc st (Sim.Store.Get Wal.manifest_key) (function
      | Sim.Store.Value None ->
          st.manifest_exists <- false;
          st.manifest <- Wal.initial_manifest;
          recover_fence st
      | Sim.Store.Value (Some enc) -> (
          match Wal.decode_manifest enc with
          | Ok m ->
              st.manifest_exists <- true;
              st.manifest <- m;
              recover_fence st
          | Error e -> recovery_failed st e)
      | _ -> recovery_failed st "unexpected response to manifest read")

  and recover_fence st =
    let desired = st.manifest.Wal.epoch + 1 in
    manifest_advance st
      (fun m -> { m with Wal.epoch = max m.Wal.epoch desired })
      (fun () -> recover_snapshot st)

  and recover_snapshot st =
    if st.manifest.Wal.snap = 0 then recover_list st None
    else
      rpc st (Sim.Store.Get (Wal.snap_key st.manifest.Wal.snap)) (function
        | Sim.Store.Value None ->
            recovery_failed st "manifest names a missing snapshot"
        | Sim.Store.Value (Some enc) -> (
            match Wal.decode_snapshot enc with
            | Ok s -> recover_list st (Some s)
            | Error e -> recovery_failed st e)
        | _ -> recovery_failed st "unexpected response to snapshot read")

  and recover_list st snap =
    rpc st (Sim.Store.List Wal.chunk_prefix) (function
      | Sim.Store.Keys keys ->
          let live =
            List.filter_map
              (fun k ->
                match Wal.chunk_index_of_key k with
                | Some idx
                  when idx >= st.manifest.Wal.low && idx <= st.manifest.Wal.active
                  ->
                    Some idx
                | Some _ | None -> None)
              keys
          in
          recover_chunks st snap live []
      | _ -> recovery_failed st "unexpected response to chunk listing")

  and recover_chunks st snap idxs acc =
    match idxs with
    | [] -> recover_finish st snap (List.rev acc)
    | idx :: rest ->
        rpc st (Sim.Store.Get (Wal.chunk_key idx)) (function
          | Sim.Store.Value None ->
              (* Deleted between listing and read: GC'd, hence covered. *)
              recover_chunks st snap rest acc
          | Sim.Store.Value (Some enc) -> (
              match Wal.decode_chunk enc with
              | Ok c -> recover_chunks st snap rest ((idx, c) :: acc)
              | Error e -> recovery_failed st e)
          | _ -> recovery_failed st "unexpected response to chunk read")

  and recover_finish st snap fetched =
    match Wal.replay st.manifest snap (List.map snd fetched) with
    | Error e -> recovery_failed st e
    | Ok (count, table) ->
        st.count <- count;
        st.table <- table;
        st.active_chunk <-
          List.assoc_opt st.manifest.Wal.active fetched;
        st.phase <- Ready;
        st.replays <- st.replays + 1;
        Wal.Monitor.note_recovered_count st.monitor count;
        process_next st

  let maybe_detect_recovery st =
    let recs = Sim.Network.recoveries_of st.net st.writer in
    if recs > st.known_recoveries then begin
      st.known_recoveries <- recs;
      start_recovery st
    end

  (* ------------------------------------------------------------------ *)
  (* Message handler and origin-side retry machinery. *)

  let handle st ~reply:_ ~self ~src:_ payload =
    match payload with
    | S_req { rid; req } ->
        if self = st.store_id then
          Sim.Store.serve st.store st.net req
            ~reply:(fun ?extra_delay resp ->
              let send () =
                Sim.Network.send st.net ~src:st.store_id ~dst:st.writer
                  (S_resp { rid; resp })
              in
              match extra_delay with
              | Some d -> Sim.Network.schedule_local st.net ~delay:d send
              | None -> send ())
    | S_resp { rid; resp } ->
        if self = st.writer then begin
          maybe_detect_recovery st;
          match st.inflight with
          | Some (rid', _, k) when rid' = rid -> (
              match resp with
              | Sim.Store.Unavailable when st.armed ->
                  (* Outage window: leave the RPC in flight, the armed
                     retry timer re-sends after backoff. *)
                  ()
              | _ ->
                  st.inflight <- None;
                  k resp)
          | Some _ | None -> ()  (* stale or duplicated response *)
        end
    | Inc_req { origin; oseq } ->
        if self = st.writer then begin
          maybe_detect_recovery st;
          enqueue st ~origin ~oseq;
          process_next st
        end
    | Inc_ack { oseq; value } ->
        if
          self = st.cur_origin
          && self >= 1 && self <= st.n
          && oseq = st.oseqs.(self)
          && not st.op_served
        then begin
          st.op_served <- true;
          st.op_value <- value
        end

  let rec origin_attempt st ~origin ~oseq =
    if st.armed && st.op_attempts >= st.max_attempts then begin
      if st.stall_reason = None then
        st.stall_reason <-
          Some (Printf.sprintf "gave up after %d attempts" st.op_attempts)
    end
    else begin
      st.op_attempts <- st.op_attempts + 1;
      Sim.Network.send st.net ~src:origin ~dst:st.writer (Inc_req { origin; oseq });
      if st.armed then begin
        let r = st.op_round in
        let timeout = st.op_timeout in
        st.op_timeout <- st.op_timeout *. 2.;
        Sim.Network.schedule_local st.net ~delay:timeout (fun () ->
            if
              r = st.op_round && (not st.op_served)
              && not (Sim.Network.crashed st.net origin)
            then origin_attempt st ~origin ~oseq)
      end
    end

  (* ------------------------------------------------------------------ *)

  let create_raw ?seed ?delay ?faults ?(cas = true)
      ?(chunk_records = default_chunk_records) ?(snap_every = default_snap_every)
      ~n () =
    if n < 1 then invalid_arg "Durable_counter.create_raw: n must be >= 1";
    if chunk_records < 1 then
      invalid_arg "Durable_counter.create_raw: chunk_records must be >= 1";
    if snap_every < 1 then
      invalid_arg "Durable_counter.create_raw: snap_every must be >= 1";
    let net = Sim.Network.create ?seed ?delay ?faults ~n ~label () in
    let store = Sim.Store.create () in
    let monitor = Wal.Monitor.create () in
    Wal.Monitor.attach monitor store;
    let armed =
      match faults with Some f -> not (Sim.Fault.is_none f) | None -> false
    in
    let max_attempts = if Sim.Network.has_scheduler net then 24 else 8 in
    let st =
      {
        net;
        store;
        monitor;
        n;
        writer = 1;
        store_id = n + 1;
        cas;
        chunk_records;
        snap_every;
        armed;
        max_attempts;
        phase = Ready;
        round = 0;
        count = 0;
        table = [];
        manifest = Wal.initial_manifest;
        manifest_exists = false;
        active_chunk = None;
        inc_queue = [];
        busy = false;
        rid = 0;
        inflight = None;
        rpc_attempts = 0;
        rpc_timeout = initial_timeout;
        known_recoveries = 0;
        wedged = None;
        oseqs = Array.make (n + 1) 0;
        op_round = 0;
        cur_origin = 0;
        op_served = false;
        op_value = -1;
        op_attempts = 0;
        op_timeout = initial_timeout;
        stall_reason = None;
        replays = 0;
      }
    in
    (* Store RPCs are retried; FIFO delivery into the store would shield
       the CAS from ever seeing a reordered stale request, so the model
       checker gets every interleaving of pending store traffic. *)
    Sim.Network.declare_unordered net st.store_id;
    st

  let create ?seed ?delay ?faults ~n () = create_raw ?seed ?delay ?faults ~n ()

  let net t = t.net

  let value t =
    (* The durable truth: what a fresh recovery would reconstruct. With
       no faults this equals the number of completed increments. *)
    match Wal.audit t.store with Ok (count, _) -> count | Error _ -> t.count

  let start t ~reply:_ ~op:_ ~origin =
    t.cur_origin <- origin;
    t.op_served <- false;
    t.op_value <- -1;
    t.op_attempts <- 0;
    t.op_timeout <- initial_timeout;
    t.stall_reason <- None;
    t.oseqs.(origin) <- t.oseqs.(origin) + 1;
    let oseq = t.oseqs.(origin) in
    match t.wedged with
    | Some r -> if t.stall_reason = None then t.stall_reason <- Some r
    | None ->
        if Sim.Network.crashed t.net origin then
          t.stall_reason <-
            Some (Printf.sprintf "origin processor %d is crashed" origin)
        else if origin = t.writer then begin
          maybe_detect_recovery t;
          enqueue t ~origin ~oseq;
          process_next t
        end
        else origin_attempt t ~origin ~oseq

  let verdict t ~origin _ =
    t.op_round <- t.op_round + 1;
    (match Wal.Monitor.violation t.monitor with
    | Some v -> stall ("spec: " ^ v)
    | None -> ());
    if t.op_served then t.op_value
    else
      stall
        (match t.stall_reason with
        | Some r -> r
        | None ->
            if Sim.Network.crashed t.net origin then
              "origin crashed mid-operation"
            else if t.phase = Recovering then "writer still recovering"
            else "no value returned")

  let copy t net =
    let store = Sim.Store.copy t.store in
    let monitor = Wal.Monitor.copy t.monitor in
    Wal.Monitor.attach monitor store;
    { t with net; store; monitor; oseqs = Array.copy t.oseqs }
end

include Counter.Host.Make (Protocol)

let create_raw ?seed ?delay ?faults ?cas ?chunk_records ?snap_every ~n () =
  host
    (Protocol.create_raw ?seed ?delay ?faults ?cas ?chunk_records ?snap_every
       ~n ())

let replays t = (core t).Protocol.replays

let live_count t = (core t).Protocol.count

let store t = (core t).Protocol.store

let spec_violation t = Wal.Monitor.violation (core t).Protocol.monitor
