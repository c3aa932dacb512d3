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
   enumerates the *enabled* events — the head of each (src, dst) link's
   queue, every queued message of an unordered link, then one choice for
   the earliest-armed timer — and asks the policy which happens next, or
   which processor crashes, revives or turns Byzantine first. Virtual
   time is then logical (+1 per event) and no delay is sampled, so a run
   is a pure function of the decision sequence. *)

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

(* Scheduler-mode state. Every link in use keeps its pending messages in
   a FIFO queue and counts its sends (the next ordinal); whether all its
   queued messages are enabled or only the head is fixed when it carries
   its first message. A message's [choice] is built once, at send time;
   [mseq] is global send order, for the sweep's drop annotations. *)
type 'msg queued =
  { mseq : int; mchoice : choice; mpayload : 'msg; mparent : int }

type 'msg link = {
  lsrc : int;
  ldst : int;
  lunordered : bool;
  lqueue : 'msg queued Queue.t;
  mutable lsent : int;
}

type timer = { tparent : int; callback : unit -> unit }

type 'msg sched = {
  policy : policy;
  mutable links : 'msg link array;  (* sorted by (src, dst); [nlinks] used *)
  mutable nlinks : int;
  timers : timer Queue.t;  (* arming order *)
  mutable sent : int;  (* messages ever queued: the next [mseq] *)
  mutable waiting : int;  (* queued messages plus armed timers *)
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

let new_sched policy =
  { policy; links = [||]; nlinks = 0; timers = Queue.create (); sent = 0;
    waiting = 0 }

let create ?(seed = 0xC0FFEE) ?(delay = Delay.default) ?label ?bits
    ?(faults = Fault.none) ?corrupt ~n () =
  let scheduled = Option.is_some !ambient_policy in
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
      queue =
        (if scheduled then Heap.create ()
         else Heap.create ~capacity:(max 16 (min (2 * n) (1 lsl 16))) ());
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
      sched = Option.map new_sched !ambient_policy;
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
  | Some s -> s.waiting

let deliveries t = t.deliveries

(* The scheduler-mode link (src, dst), inserted in (src, dst) order on
   its first message; a binary search finds it afterwards. *)
let sched_link t s ~src ~dst =
  let lo = ref 0 and hi = ref s.nlinks in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let l = s.links.(mid) in
    if l.lsrc < src || (l.lsrc = src && l.ldst < dst) then lo := mid + 1
    else hi := mid
  done;
  let i = !lo in
  if i < s.nlinks && s.links.(i).lsrc = src && s.links.(i).ldst = dst then
    s.links.(i)
  else begin
    let l =
      { lsrc = src; ldst = dst; lunordered = is_unordered t dst;
        lqueue = Queue.create (); lsent = 0 }
    in
    if s.nlinks = Array.length s.links then
      s.links <- Array.append s.links (Array.make (max 8 s.nlinks) l);
    Array.blit s.links i s.links (i + 1) (s.nlinks - i);
    s.links.(i) <- l;
    s.nlinks <- s.nlinks + 1;
    l
  end

let enqueue_delivery t ~src ~dst payload =
  match t.sched with
  | Some s ->
      (* Scheduler mode: the message joins its link's queue untimed; no
         delay is sampled (the adversary, not the latency model, decides
         when it arrives). *)
      let l = sched_link t s ~src ~dst in
      let link_seq = if l.lunordered then l.lsent else -1 in
      l.lsent <- l.lsent + 1;
      s.sent <- s.sent + 1;
      s.waiting <- s.waiting + 1;
      Queue.add
        { mseq = s.sent; mpayload = payload; mparent = t.current_event;
          mchoice =
            { link_src = src; link_dst = dst; link_seq;
              link_tag = t.label payload } }
        l.lqueue
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
      s.waiting <- s.waiting + 1;
      Queue.add { tparent = t.current_event; callback } s.timers
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

let timer_choice =
  { link_src = 0; link_dst = 0; link_seq = -1; link_tag = "timer" }

(* Enabled events a link offers: all it holds if unordered, else its head. *)
let offered l =
  let len = Queue.length l.lqueue in
  if l.lunordered then len else Int.min 1 len

(* Discard the messages queued for crashed processors before enumerating:
   a dead destination is not a real choice, and sweeping eagerly keeps
   the branching the model checker sees free of no-ops. Each discarded
   message is charged exactly as the heap path charges a delivery to a
   dead peer, and annotated oldest first, in global send order. *)
let sched_sweep_dead t s =
  let dead = ref [] in
  for i = 0 to s.nlinks - 1 do
    let l = s.links.(i) in
    if crashed t l.ldst && not (Queue.is_empty l.lqueue) then begin
      dead := Queue.fold (fun acc m -> m :: acc) !dead l.lqueue;
      s.waiting <- s.waiting - Queue.length l.lqueue;
      Queue.clear l.lqueue
    end
  done;
  match !dead with
  | [] -> ()
  | dead ->
      List.iter
        (fun m ->
          Metrics.on_drop t.metrics;
          record_fault t ~src:m.mchoice.link_src ~dst:m.mchoice.link_dst
            Trace.Dropped)
        (List.sort (fun a b -> Int.compare a.mseq b.mseq) dead)

(* Enabled events, canonically ordered: link by link in (src, dst) order,
   each link's offered messages by ordinal (= send order), then — if any
   timer is armed — one choice for the earliest-armed timer. *)
let sched_enabled s =
  let count = ref (if Queue.is_empty s.timers then 0 else 1) in
  for i = 0 to s.nlinks - 1 do
    count := !count + offered s.links.(i)
  done;
  let choices = Array.make !count timer_choice in
  let k = ref 0 in
  for i = 0 to s.nlinks - 1 do
    let l = s.links.(i) in
    if l.lunordered then
      k := Queue.fold (fun j m -> choices.(j) <- m.mchoice; j + 1) !k l.lqueue
    else if not (Queue.is_empty l.lqueue) then begin
      choices.(!k) <- (Queue.peek l.lqueue).mchoice;
      incr k
    end
  done;
  choices

(* Remove the [j]-th queued message, keeping the others in send order. *)
let take_nth q j =
  if j = 0 then Queue.take q
  else begin
    let taken = ref (Queue.peek q) in
    for k = 0 to Queue.length q - 1 do
      let m = Queue.take q in
      if k = j then taken := m else Queue.add m q
    done;
    !taken
  end

(* Carry out the [i]-th enabled event, found by the walk [sched_enabled]
   makes: links from [li] on, then the timer. *)
let rec sched_fire t s li i =
  if li = s.nlinks then
    let { tparent; callback } = Queue.take s.timers in
    fire_timer t ~parent:tparent callback
  else
    let l = s.links.(li) in
    let c = offered l in
    if i >= c then sched_fire t s (li + 1) (i - c)
    else
      let m = take_nth l.lqueue i in
      deliver t ~src:l.lsrc ~dst:l.ldst ~parent:m.mparent m.mpayload

let rec sched_step t s =
  if t.faults_active then sched_sweep_dead t s;
  let choices = sched_enabled s in
  let count = Array.length choices in
  if count = 0 then false
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
        if i < 0 || i >= count then
          invalid_arg "Network: scheduler chose an out-of-range event";
        t.clock.(0) <- t.clock.(0) +. 1.;
        s.waiting <- s.waiting - 1;
        sched_fire t s 0 i;
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
      (* Quiescence means empty queues; the clone keeps the policy, so its
         deliveries stay adversary-driven, and its own copy of every link,
         so ordinals continue without the original's later sends leaking
         in. *)
      Option.map
        (fun s ->
          let copy i = { (s.links.(i)) with lqueue = Queue.create () } in
          { (new_sched s.policy) with
            links = Array.init s.nlinks copy; nlinks = s.nlinks;
            sent = s.sent })
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
