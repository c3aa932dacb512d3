let log_src = Logs.Src.create "sim.network" ~doc:"Discrete-event network"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Pending events: message deliveries (charged to metrics and traces) and
   local timer expirations (free — a processor consulting its own clock).
   [Deliver] is an inline record: one block per queued message instead of
   the envelope-behind-a-variant two blocks it used to be. *)
type 'msg event =
  | Deliver of { src : int; dst : int; payload : 'msg; parent : int }
  | Local of int * (unit -> unit)
      (* timer with the causal parent of the event that scheduled it *)

(* ------------------------------------------------------------------ *)
(* Pluggable delivery scheduling.

   The default engine delivers the earliest pending event (the heap
   order). A scheduler replaces that policy: at every step the engine
   enumerates the *enabled* events — the oldest pending message of each
   distinct (src, dst) link, in per-link send order, plus a single
   choice standing for the earliest-armed local timer — and asks the
   policy which one happens next. The policy may instead crash-stop a
   processor between deliveries ([Crash_now]), which is how the model
   checker interleaves fault events with message deliveries. Under a
   scheduler, virtual time is logical: the clock advances by 1 per
   event and no delay is ever sampled, so runs are pure functions of
   the decision sequence. *)

type choice = {
  link_src : int;
  link_dst : int;
  link_seq : int;
      (* per-link send ordinal for messages into a destination declared
         unordered (see [declare_unordered]); -1 for FIFO links and the
         timer pseudo-choice *)
  link_tag : string;
}

type decision =
  | Deliver_next of int
  | Crash_now of int
  | Recover_now of int
  | Byz_now of int

type policy = choice array -> decision

(* One pending event in scheduler mode; [pseq] is global send order, so
   per-link FIFO = lowest [pseq] on that link, and [plseq] is the stable
   per-link send ordinal used to name individual messages on unordered
   destinations. *)
type 'msg pend =
  | Pend_msg of {
      pseq : int;
      plseq : int;
      psrc : int;
      pdst : int;
      ppayload : 'msg;
      pparent : int;
    }
  | Pend_timer of { pseq : int; tparent : int; callback : unit -> unit }

type 'msg sched = {
  policy : policy;
  mutable spending : 'msg pend list;  (* reverse send order *)
  mutable sseq : int;
  link_seqs : (int * int, int) Hashtbl.t;
      (* messages ever sent per (src, dst) link — the next [plseq] *)
}

type 'msg t = {
  n : int;
  rng : Rng.t;
  delay : Delay.t;
  label : 'msg -> string;
  bits : 'msg -> int;
  measure_bits : bool;
      (* skip the [bits] call entirely when no measure was supplied *)
  queue : 'msg event Heap.t;
      (* the SoA event heap; its (arrival, insertion order) pop order is
         the engine's delivery order *)
  debug : bool;
      (* [Logs] debug level sampled once at [create]: the per-delivery
         [Log.debug] closure is only allocated when someone could see it *)
  metrics : Metrics.t;
  mutable handler : (self:int -> src:int -> 'msg -> unit) option;
  clock : float array;
      (* length 1; a flat float slot so advancing the clock every step
         does not re-box the float as a mutable record field would *)
  mutable deliveries : int;
  mutable trace : Trace.t option;
  mutable op_count : int;
  mutable total_bits : int;
  mutable max_message_bits : int;
  mutable current_event : int;
      (* seq of the delivery being handled; 0 outside handlers *)
  faults : Fault.t;
  mutable faults_active : bool;
      (* false = the entire fault layer is skipped on the hot path (and
         zero Rng draws are made), keeping Fault.none runs bit-identical;
         flipped on by a plan or by a manual [crash] *)
  mutable crashed_tbl : bool array;  (* index = processor id; grows *)
  mutable byz_tbl : bool array;  (* turned Byzantine; index = id; grows *)
  corrupt :
    (rule:Fault.byz_rule -> equivocate:bool -> src:int -> dst:int ->
     'msg -> 'msg)
    option;
      (* protocol-supplied payload rewriter: the network knows when to
         corrupt (plan triggers) but not how to rewrite an opaque ['msg];
         counters that support Byzantine runs pass one at [create] *)
  mutable recovered_tbl : bool array;  (* ever recovered; index = id; grows *)
  mutable recovery_counts : int array;
      (* completed revivals per processor; index = id; grows *)
  mutable unordered_tbl : bool array;
      (* destinations whose inbound delivery order the scheduler may
         permute beyond per-link FIFO; index = id; grows *)
  time_events : (float * int * int) array;
      (* (At trigger, kind, processor) with kind 0 = crash, 1 = recover,
         2 = turn Byzantine, sorted by time then kind then processor — a
         crash and a recovery of the same processor at the same instant
         apply crash-first *)
  mutable time_event_idx : int;
  count_crashes : (int * int * int) array;
      (* (After trigger, kind, processor) with kind 0 = crash, 2 = turn
         Byzantine, sorted *)
  mutable count_crash_idx : int;
  sched : 'msg sched option;
      (* None = the heap engine, bit-identical to pre-scheduler builds *)
}

let record_fault t ~src ~dst kind =
  match t.trace with
  | Some trace ->
      Trace.record_fault trace
        {
          Trace.fault_time = t.clock.(0);
          fault_src = src;
          fault_dst = dst;
          kind;
        }
  | None -> ()

let crashed t p = p >= 0 && p < Array.length t.crashed_tbl && t.crashed_tbl.(p)

let recovered t p =
  p >= 0 && p < Array.length t.recovered_tbl && t.recovered_tbl.(p)

let ever_crashed t p = crashed t p || recovered t p

let grown tbl p =
  let cap = Array.length tbl in
  if p < cap then tbl
  else begin
    let tbl' = Array.make (max (p + 1) (2 * max cap 8)) false in
    Array.blit tbl 0 tbl' 0 cap;
    tbl'
  end

let crash t p =
  if p < 1 then invalid_arg "Network.crash: ids start at 1";
  if not (crashed t p) then begin
    t.faults_active <- true;
    t.crashed_tbl <- grown t.crashed_tbl p;
    t.crashed_tbl.(p) <- true;
    Metrics.on_crash t.metrics;
    record_fault t ~src:p ~dst:p Trace.Crashed
  end

let grown_counts tbl p =
  let cap = Array.length tbl in
  if p < cap then tbl
  else begin
    let tbl' = Array.make (max (p + 1) (2 * max cap 8)) 0 in
    Array.blit tbl 0 tbl' 0 cap;
    tbl'
  end

let recover t p =
  if p < 1 then invalid_arg "Network.recover: ids start at 1";
  (* Reviving a processor that is not down is a no-op, so a plan whose
     recovery time lands before its crash time degrades gracefully. *)
  if crashed t p then begin
    t.crashed_tbl.(p) <- false;
    t.recovered_tbl <- grown t.recovered_tbl p;
    t.recovered_tbl.(p) <- true;
    t.recovery_counts <- grown_counts t.recovery_counts p;
    t.recovery_counts.(p) <- t.recovery_counts.(p) + 1;
    Metrics.on_recover t.metrics;
    record_fault t ~src:p ~dst:p Trace.Recovered
  end

let byzantine t p = p >= 0 && p < Array.length t.byz_tbl && t.byz_tbl.(p)

let make_byzantine t p =
  if p < 1 then invalid_arg "Network.make_byzantine: ids start at 1";
  if not (byzantine t p) then begin
    t.faults_active <- true;
    t.byz_tbl <- grown t.byz_tbl p;
    t.byz_tbl.(p) <- true;
    Metrics.on_byzantine t.metrics;
    record_fault t ~src:p ~dst:p Trace.Turned_byzantine
  end

let byzantine_processors t =
  let acc = ref [] in
  for p = Array.length t.byz_tbl - 1 downto 1 do
    if t.byz_tbl.(p) then acc := p :: !acc
  done;
  !acc

let recoveries_of t p =
  if p >= 0 && p < Array.length t.recovery_counts then t.recovery_counts.(p)
  else 0

let declare_unordered t p =
  if p < 1 then invalid_arg "Network.declare_unordered: ids start at 1";
  t.unordered_tbl <- grown t.unordered_tbl p;
  t.unordered_tbl.(p) <- true

let is_unordered t p =
  p >= 0 && p < Array.length t.unordered_tbl && t.unordered_tbl.(p)

let recovered_processors t =
  let acc = ref [] in
  for p = Array.length t.recovered_tbl - 1 downto 1 do
    if t.recovered_tbl.(p) && not (crashed t p) then acc := p :: !acc
  done;
  !acc

(* Crash/recover triggers are applied between deliveries: time triggers
   fire before the first event at or past their instant, count triggers
   once the delivery total reaches them. *)
let apply_due_crashes t ~at =
  while
    t.time_event_idx < Array.length t.time_events
    && (let time, _, _ = t.time_events.(t.time_event_idx) in
        time <= at)
  do
    let _, kind, p = t.time_events.(t.time_event_idx) in
    t.time_event_idx <- t.time_event_idx + 1;
    if kind = 0 then crash t p
    else if kind = 1 then recover t p
    else make_byzantine t p
  done;
  while
    t.count_crash_idx < Array.length t.count_crashes
    && (let d, _, _ = t.count_crashes.(t.count_crash_idx) in
        d <= t.deliveries)
  do
    let _, kind, p = t.count_crashes.(t.count_crash_idx) in
    t.count_crash_idx <- t.count_crash_idx + 1;
    if kind = 0 then crash t p else make_byzantine t p
  done

(* Ambient default policy: counters build their own networks inside
   [create], so the model checker installs its policy for the dynamic
   extent of the counter constructor instead of threading a parameter
   through every implementation. *)
let ambient_policy : policy option ref = ref None

let with_scheduler policy f =
  let saved = !ambient_policy in
  ambient_policy := Some policy;
  Fun.protect ~finally:(fun () -> ambient_policy := saved) f

let create ?(seed = 0xC0FFEE) ?(delay = Delay.default) ?label ?bits
    ?(faults = Fault.none) ?corrupt ~n () =
  let measure_bits = bits <> None in
  let label = match label with Some f -> f | None -> fun _ -> "msg" in
  let bits = match bits with Some f -> f | None -> fun _ -> 0 in
  (match Fault.validate faults with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Network.create: bad fault plan: " ^ e));
  (* A byzval rule promises payload corruption; without a rewriter the
     network cannot keep it (the payload type is opaque here). Refusing
     beats silently running the plan honestly. *)
  if faults.Fault.byz_rules <> [] && corrupt = None then
    invalid_arg
      "Network.create: fault plan has byzval rules but this protocol \
       supplies no ?corrupt rewriter";
  let time_events, count_crashes =
    let at, after =
      List.partition_map
        (fun (kind, { Fault.processor; trigger }) ->
          match trigger with
          | Fault.At time -> Either.Left (time, kind, processor)
          | Fault.After d -> Either.Right (d, kind, processor))
        (List.map (fun c -> (0, c)) faults.Fault.crashes
        @ List.map (fun b -> (2, b)) faults.Fault.byz)
    in
    let at =
      at
      @ List.map
          (fun ({ processor; time } : Fault.recover) -> (time, 1, processor))
          faults.Fault.recovers
    in
    (* (time, kind, proc) and (delivery-count, kind, proc) tuples, ordered
       by trigger then kind (crash before recover before Byzantine turn)
       then victim — spelled out so the tie-break is typed. *)
    let sort3 cmp_fst =
      List.sort (fun (t1, k1, p1) (t2, k2, p2) ->
          match cmp_fst t1 t2 with
          | 0 -> (
              match Int.compare k1 k2 with 0 -> Int.compare p1 p2 | c -> c)
          | c -> c)
    in
    let sort_at = sort3 Float.compare at
    and sort_after = sort3 Int.compare after in
    (Array.of_list sort_at, Array.of_list sort_after)
  in
  let t =
    {
      n;
      rng = Rng.create ~seed;
      delay;
      label;
      bits;
      measure_bits;
      queue = Heap.create ~capacity:(max 16 (min (2 * n) (1 lsl 16))) ();
      debug =
        (match Logs.Src.level log_src with
        | Some Logs.Debug -> true
        | Some _ | None -> false);
      metrics = Metrics.create ~n;
      handler = None;
      clock = [| 0. |];
      deliveries = 0;
      trace = None;
      op_count = 0;
      total_bits = 0;
      max_message_bits = 0;
      current_event = 0;
      faults;
      faults_active = not (Fault.is_none faults);
      crashed_tbl = [||];
      byz_tbl = [||];
      corrupt;
      recovered_tbl = [||];
      recovery_counts = [||];
      unordered_tbl = [||];
      time_events;
      time_event_idx = 0;
      count_crashes;
      count_crash_idx = 0;
      sched =
        Option.map
          (fun policy ->
            { policy; spending = []; sseq = 0;
              link_seqs = Hashtbl.create 16 })
          !ambient_policy;
    }
  in
  (* "Crashed from the start" triggers (At 0. / After 0) apply before any
     send, not lazily at the first delivery. *)
  if t.faults_active then apply_due_crashes t ~at:0.;
  t

let set_handler t h = t.handler <- Some h

let has_scheduler t = t.sched <> None

let n t = t.n

let rng t = t.rng

let now t = t.clock.(0)

let metrics t = t.metrics

let faults t = t.faults

let pending t =
  match t.sched with
  | None -> Heap.size t.queue
  | Some s -> List.length s.spending

let deliveries t = t.deliveries

let enqueue_delivery t ~src ~dst payload =
  match t.sched with
  | Some s ->
      (* Scheduler mode: the message joins the pending pool untimed; no
         delay is sampled (the adversary, not the latency model, decides
         when it arrives). *)
      s.sseq <- s.sseq + 1;
      let plseq =
        match Hashtbl.find_opt s.link_seqs (src, dst) with
        | Some k -> k
        | None -> 0
      in
      Hashtbl.replace s.link_seqs (src, dst) (plseq + 1);
      s.spending <-
        Pend_msg
          { pseq = s.sseq; plseq; psrc = src; pdst = dst;
            ppayload = payload; pparent = t.current_event }
        :: s.spending
  | None ->
      let arrival = t.clock.(0) +. Delay.sample t.delay t.rng in
      Heap.push t.queue ~prio:arrival
        (Deliver { src; dst; payload; parent = t.current_event })

let send t ~src ~dst payload =
  if src < 1 || dst < 1 then invalid_arg "Network.send: ids start at 1";
  if t.faults_active && crashed t src then begin
    (* A crash-stopped processor emits nothing: the send is suppressed
       before any charge (it never happened at the sender). This arm is
       only reachable from driver-level code and timers — the handler of
       a crashed processor never runs. *)
    Metrics.on_drop t.metrics;
    record_fault t ~src ~dst Trace.Dropped
  end
  else begin
    (* Byzantine payload rewrite: once the sender has turned and its plan
       gives it a byzval rule, every payload it emits is rewritten by the
       protocol-supplied [corrupt] — a pure function of (rule, equivocate,
       src, dst, payload), so this arm makes zero Rng draws and plans
       without byz clauses never reach it. *)
    let payload =
      if t.faults_active && byzantine t src then
        match (t.corrupt, Fault.byz_rule_of t.faults src) with
        | Some f, Some rule ->
            let rewritten =
              f ~rule
                ~equivocate:(Fault.equivocates t.faults src)
                ~src ~dst payload
            in
            if rewritten != payload then begin
              Metrics.on_corruption t.metrics;
              record_fault t ~src ~dst Trace.Corrupted
            end;
            rewritten
        | _ -> payload
      else payload
    in
    Metrics.on_send t.metrics src;
    if t.measure_bits then begin
      let size = t.bits payload in
      t.total_bits <- t.total_bits + size;
      if size > t.max_message_bits then t.max_message_bits <- size
    end;
    if
      t.faults_active
      && Fault.partitioned t.faults ~src ~dst ~at:t.clock.(0)
    then begin
      (* Deterministic loss, no Rng draw: the cut is evaluated at send
         time, so a message "enters the dead link" and vanishes. *)
      Metrics.on_drop t.metrics;
      record_fault t ~src ~dst Trace.Dropped
    end
    else begin
      (* Rng draw order is part of the determinism contract: drop test
         (only when this link has a non-zero drop probability), then the
         delay sample, then the duplication test (only when the plan
         duplicates), then the duplicate's own delay sample. *)
      let dropped =
        t.faults_active
        &&
        let p = Fault.drop_on t.faults ~src ~dst in
        p > 0. && Rng.float t.rng 1.0 < p
      in
      if dropped then begin
        Metrics.on_drop t.metrics;
        record_fault t ~src ~dst Trace.Dropped
      end
      else begin
        enqueue_delivery t ~src ~dst payload;
        if
          t.faults_active
          && t.faults.Fault.duplicate > 0.
          && Rng.float t.rng 1.0 < t.faults.Fault.duplicate
        then begin
          Metrics.on_duplicate t.metrics;
          record_fault t ~src ~dst Trace.Duplicated;
          enqueue_delivery t ~src ~dst payload
        end
      end
    end
  end

let schedule_local t ~delay callback =
  if delay < 0. then invalid_arg "Network.schedule_local: negative delay";
  match t.sched with
  | Some s ->
      s.sseq <- s.sseq + 1;
      s.spending <-
        Pend_timer { pseq = s.sseq; tparent = t.current_event; callback }
        :: s.spending
  | None ->
      Heap.push t.queue
        ~prio:(t.clock.(0) +. delay)
        (Local (t.current_event, callback))

(* --- Delivery, shared by both engines -------------------------------- *)

(* A timer's effects are causal consequences of the event that armed it. *)
let fire_timer t ~parent callback =
  let saved = t.current_event in
  t.current_event <- parent;
  callback ();
  t.current_event <- saved

(* Deliver one message to a live destination at the current clock: charge
   the receive, record it on the open trace, and run the handler with this
   delivery as the causal parent of whatever it sends. *)
let deliver t ~src ~dst ~parent payload =
  let handler =
    match t.handler with
    | Some h -> h
    | None -> failwith "Network.step: no handler installed"
  in
  t.deliveries <- t.deliveries + 1;
  if t.debug then
    Log.debug (fun m ->
        m "t=%.3f deliver %d -> %d [%s]" t.clock.(0) src dst (t.label payload));
  Metrics.on_recv t.metrics dst;
  (match t.trace with
  | Some trace ->
      Trace.record trace
        {
          Trace.seq = t.deliveries;
          time = t.clock.(0);
          src;
          dst;
          tag = t.label payload;
          parent;
        }
  | None -> ());
  let saved = t.current_event in
  t.current_event <- t.deliveries;
  handler ~self:dst ~src payload;
  t.current_event <- saved

(* --- Scheduler-mode stepping ---------------------------------------- *)

(* Discard pending messages addressed to crashed processors before
   enumerating: a dead destination is not a real choice, and sweeping
   eagerly keeps the branching the model checker sees free of no-ops.
   Each discarded message is charged exactly as the heap path charges a
   delivery to a dead peer. *)
let sched_sweep_dead t s =
  if t.faults_active then begin
    let dead, alive =
      List.partition
        (function Pend_msg m -> crashed t m.pdst | Pend_timer _ -> false)
        s.spending
    in
    if dead <> [] then begin
      s.spending <- alive;
      List.iter
        (function
          | Pend_msg m ->
              Metrics.on_drop t.metrics;
              record_fault t ~src:m.psrc ~dst:m.pdst Trace.Dropped
          | Pend_timer _ -> ())
        (* Oldest first, so drop annotations appear in send order. *)
        (List.sort
           (fun a b ->
             let seq = function Pend_msg m -> m.pseq | Pend_timer p -> p.pseq in
             Int.compare (seq a) (seq b))
           dead)
    end
  end

(* Enabled events, canonically ordered: the oldest pending message of
   each distinct (src, dst) link — or, for a destination declared
   unordered, {e every} pending message to it — sorted by
   (src, dst, per-link ordinal), then — if any timer is armed — one
   choice for the earliest-armed timer. Returns the choices plus the
   pending entry each choice denotes. *)
let sched_enabled t s =
  sched_sweep_dead t s;
  let in_order =
    List.sort
      (fun a b ->
        let seq = function Pend_msg m -> m.pseq | Pend_timer p -> p.pseq in
        Int.compare (seq a) (seq b))
      s.spending
  in
  let links = Hashtbl.create 16 in
  let msgs = ref [] and first_timer = ref None in
  List.iter
    (fun p ->
      match p with
      | Pend_msg m ->
          if is_unordered t m.pdst then msgs := p :: !msgs
          else if not (Hashtbl.mem links (m.psrc, m.pdst)) then begin
            Hashtbl.add links (m.psrc, m.pdst) ();
            msgs := p :: !msgs
          end
      | Pend_timer _ -> if !first_timer = None then first_timer := Some p)
    in_order;
  let msgs =
    List.sort
      (fun a b ->
        match (a, b) with
        | Pend_msg x, Pend_msg y -> (
            match Int.compare x.psrc y.psrc with
            | 0 -> (
                match Int.compare x.pdst y.pdst with
                | 0 -> Int.compare x.plseq y.plseq
                | c -> c)
            | c -> c)
        | _ -> 0)
      !msgs
  in
  let picks =
    Array.of_list (msgs @ match !first_timer with None -> [] | Some p -> [ p ])
  in
  let choices =
    Array.map
      (function
        | Pend_msg m ->
            {
              link_src = m.psrc;
              link_dst = m.pdst;
              link_seq = (if is_unordered t m.pdst then m.plseq else -1);
              link_tag = t.label m.ppayload;
            }
        | Pend_timer _ ->
            { link_src = 0; link_dst = 0; link_seq = -1; link_tag = "timer" })
      picks
  in
  (choices, picks)

let sched_remove s pseq =
  s.spending <-
    List.filter
      (function Pend_msg m -> m.pseq <> pseq | Pend_timer p -> p.pseq <> pseq)
      s.spending

let rec sched_step t s =
  let choices, picks = sched_enabled t s in
  if Array.length choices = 0 then false
  else
    match s.policy choices with
    | Crash_now p ->
        crash t p;
        sched_step t s
    | Recover_now p ->
        recover t p;
        sched_step t s
    | Byz_now p ->
        make_byzantine t p;
        sched_step t s
    | Deliver_next i ->
        if i < 0 || i >= Array.length picks then
          invalid_arg "Network: scheduler chose an out-of-range event";
        t.clock.(0) <- t.clock.(0) +. 1.;
        (match picks.(i) with
        | Pend_timer { pseq; tparent; callback } ->
            sched_remove s pseq;
            fire_timer t ~parent:tparent callback
        | Pend_msg { pseq; psrc; pdst; ppayload; pparent; plseq = _ } ->
            sched_remove s pseq;
            deliver t ~src:psrc ~dst:pdst ~parent:pparent ppayload);
        true

let step t =
  match t.sched with
  | Some s -> sched_step t s
  | None ->
  let q = t.queue in
  if Heap.is_empty q then false
  else begin
    let at = Heap.top_prio q in
    if at > t.clock.(0) then t.clock.(0) <- at;
    if t.faults_active then apply_due_crashes t ~at;
    match Heap.pop_top q with
    | Local (parent, callback) ->
        fire_timer t ~parent callback;
        true
    | Deliver { src; dst; payload = _; parent = _ }
      when t.faults_active && crashed t dst ->
        (* Crash-stop: a dead processor receives nothing. The send was
           charged when the message left [src]; the message itself is
           lost here, with no receive charge and no trace event. *)
        Metrics.on_drop t.metrics;
        record_fault t ~src ~dst Trace.Dropped;
        true
    | Deliver { src; dst; payload; parent } ->
        deliver t ~src ~dst ~parent payload;
        true
  end

exception
  Storm of { max_steps : int; pending : int; now : float; deliveries : int }

let () =
  Printexc.register_printer (function
    | Storm { max_steps; pending; now; deliveries } ->
        Some
          (Printf.sprintf
             "Network.Storm { max_steps = %d; pending = %d; now = %g; \
              deliveries = %d } — protocol probably diverges"
             max_steps pending now deliveries)
    | _ -> None)

let run_to_quiescence ?(max_steps = 100_000_000) t =
  let rec loop count =
    if count >= max_steps then
      raise
        (Storm
           {
             max_steps;
             pending = pending t;
             now = t.clock.(0);
             deliveries = t.deliveries;
           })
    else if step t then loop (count + 1)
    else count
  in
  loop 0

let clone_quiescent t =
  if pending t > 0 then
    failwith "Network.clone_quiescent: messages pending";
  if t.trace <> None then
    failwith "Network.clone_quiescent: an operation is open";
  {
    n = t.n;
    rng = Rng.copy t.rng;
    delay = t.delay;
    label = t.label;
    bits = t.bits;
    measure_bits = t.measure_bits;
    queue = Heap.create ();
    debug = t.debug;
    metrics = Metrics.copy t.metrics;
    handler = None;
    clock = Array.copy t.clock;
    deliveries = t.deliveries;
    trace = None;
    op_count = t.op_count;
    total_bits = t.total_bits;
    max_message_bits = t.max_message_bits;
    current_event = 0;
    faults = t.faults;
    faults_active = t.faults_active;
    crashed_tbl = Array.copy t.crashed_tbl;
    byz_tbl = Array.copy t.byz_tbl;
    corrupt = t.corrupt;
    recovered_tbl = Array.copy t.recovered_tbl;
    recovery_counts = Array.copy t.recovery_counts;
    unordered_tbl = Array.copy t.unordered_tbl;
    time_events = t.time_events;
    time_event_idx = t.time_event_idx;
    count_crashes = t.count_crashes;
    count_crash_idx = t.count_crash_idx;
    sched =
      (* Quiescence means no pending entries to copy; the clone keeps the
         same policy so its future deliveries stay adversary-driven, and
         its own ordinal table so the original's sends don't leak in. *)
      Option.map
        (fun s ->
          { s with spending = []; link_seqs = Hashtbl.copy s.link_seqs })
        t.sched;
  }

let in_op t = t.trace <> None

let begin_op t ~origin =
  if in_op t then failwith "Network.begin_op: an operation is already open";
  t.trace <-
    Some
      (Trace.create ~start_time:t.clock.(0) ~op_index:t.op_count ~origin ());
  t.op_count <- t.op_count + 1

let total_bits t = t.total_bits

let max_message_bits t = t.max_message_bits

let end_op t =
  match t.trace with
  | None -> failwith "Network.end_op: no operation open"
  | Some trace ->
      t.trace <- None;
      trace
