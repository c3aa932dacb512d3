(* Phase-king synchronous counting (Berman–Garay–Perry style): the counter
   value is replicated at every processor, and each inc runs a multivalued
   Byzantine agreement over the current value in f + 1 phases of three
   all-to-all rounds each, tolerating f = (n - 1) / 3 corrupted processors.
   Byzantine behaviour comes from the fault layer ([byz]/[byzval]/[byzeq]
   clauses): a turned processor keeps running this (honest) code, but every
   integer payload it sends is rewritten by the network — so the adversary
   here is exactly the plan, and runs stay deterministic.

   Per phase p (king = processor p), each replica i with estimate est_i:
   - round 1: broadcast est_i; on all n votes, maj1/mult1 = most frequent
     value and its multiplicity (ties to the smallest value);
   - round 2: broadcast (maj1 if mult1 >= n - f, else BOT); on all n votes,
     maj2/mult2 = most frequent non-BOT value and its count;
   - round 3: the king broadcasts its maj2 (its own estimate when every
     vote it saw was BOT); each replica keeps maj2 if mult2 >= n - f,
     else adopts the king's value.

   The guard is what makes it safe for n > 3f: round-1 keepers agree
   pairwise (two disjoint correct cohorts of n - 2f exceed n - f correct
   processors), so all correct non-BOT round-2 votes carry one value w,
   and if any correct replica passes the round-3 guard then every correct
   replica — the king included — has maj2 = w (w holds >= n - 2f > f
   votes everywhere). An honest king therefore never splits the keepers,
   and f + 1 kings guarantee an honest one. [create_with ~guard:false]
   drops the mult2 test — the [sync-no-threshold] negative control, which
   an equivocating last king splits deterministically.

   Rounds advance on full reception (all n votes): the Byzantine model
   corrupts payloads but never silences a sender, so waiting for everyone
   is sound — and a crash mid-op simply quiesces short, surfacing as a
   typed Stall, never a wrong value. *)

module Protocol = struct
  type payload =
    | Start
    | Vote1 of { phase : int; v : int }
    | Vote2 of { phase : int; v : int option }
    | King of { phase : int; v : int }
    | Reply of { v : int }

  let label = function
    | Start -> "start"
    | Vote1 _ -> "v1"
    | Vote2 _ -> "v2"
    | King _ -> "king"
    | Reply _ -> "val"

  (* The network's Byzantine rewrite hook: delegate every integer payload
     field to the plan's rule. A value the rule maps to itself keeps the
     payload physically unchanged, so the network does not charge a
     corruption for it (Start carries nothing corruptible at all). A BOT
     round-2 vote is corrupted as if it were 0 — the adversary never
     abstains. *)
  let corrupt ~rule ~equivocate ~src:_ ~dst payload =
    let rw v mk =
      let v' = Sim.Fault.apply_rule ~rule ~equivocate ~dst v in
      if v' = v then payload else mk v'
    in
    match payload with
    | Start -> payload
    | Vote1 { phase; v } -> rw v (fun v -> Vote1 { phase; v })
    | Vote2 { phase; v } ->
        let v0 = match v with Some v -> v | None -> 0 in
        let v' = Sim.Fault.apply_rule ~rule ~equivocate ~dst v0 in
        if v = Some v' then payload else Vote2 { phase; v = Some v' }
    | King { phase; v } -> rw v (fun v -> King { phase; v })
    | Reply { v } -> rw v (fun v -> Reply { v })

  (* Per-replica state of the agreement instance one inc runs. Buffers are
     indexed [phase][sender] so votes arriving ahead of this replica's own
     round (full-reception pacing keeps skew small but not zero) are simply
     stored until the state machine catches up. *)
  type rstate = {
    mutable est : int;
    mutable phase : int;  (* 1 .. phases; phases + 1 once decided *)
    mutable round : int;  (* 1 | 2 | 3 *)
    mutable maj2 : int;  (* current phase's round-2 majority ... *)
    mutable mult2 : int;  (* ... and its multiplicity (0 = all BOT) *)
    v1 : int array array;
    v1_seen : bool array array;
    v1_cnt : int array;
    v2 : int option array array;
    v2_seen : bool array array;
    v2_cnt : int array;
    king_v : int option array;
    mutable decided : int option;
  }

  type t = {
    net : payload Sim.Network.t;
    n : int;
    f : int;
    phases : int;
    guard : bool;
    count : int array;  (* replica-local counter value, index 1 .. n *)
    mutable reps : rstate array;  (* index 1 .. n, rebuilt per operation *)
    mutable origin : int;
    mutable replies : int option array;
    mutable completed : int;
  }

  let name = "sync-count"

  let describe =
    "phase-king synchronous counting: replicated value, f < n/3 Byzantine \
     agreement per inc"

  let who = "Sync_counter"

  let serialising = true

  let resilience_of_n n = (n - 1) / 3

  let supported_n n = max 4 n

  let fresh_rstate t est =
    let ph = t.phases + 1 in
    {
      est;
      phase = 1;
      round = 1;
      maj2 = 0;
      mult2 = 0;
      v1 = Array.make_matrix ph (t.n + 1) 0;
      v1_seen = Array.make_matrix ph (t.n + 1) false;
      v1_cnt = Array.make ph 0;
      v2 = Array.make_matrix ph (t.n + 1) None;
      v2_seen = Array.make_matrix ph (t.n + 1) false;
      v2_cnt = Array.make ph 0;
      king_v = Array.make ph None;
      decided = None;
    }

  (* Most frequent value with ties broken to the smallest value — any
     deterministic tie-break works for the agreement argument, this one is
     also schedule-independent. O(n^2), n is small. *)
  let most_frequent vals =
    let best_v = ref 0 and best_c = ref 0 in
    List.iter
      (fun v ->
        let c = List.length (List.filter (Int.equal v) vals) in
        if c > !best_c || (c = !best_c && v < !best_v) then begin
          best_v := v;
          best_c := c
        end)
      vals;
    (!best_v, !best_c)

  let bcast t ~self pay =
    for dst = 1 to t.n do
      if dst <> self then Sim.Network.send t.net ~src:self ~dst pay
    done

  let record_v1 r ~sender ~phase v =
    if phase >= 1 && phase <= Array.length r.v1_cnt - 1 && not r.v1_seen.(phase).(sender)
    then begin
      r.v1_seen.(phase).(sender) <- true;
      r.v1.(phase).(sender) <- v;
      r.v1_cnt.(phase) <- r.v1_cnt.(phase) + 1
    end

  let record_v2 r ~sender ~phase v =
    if phase >= 1 && phase <= Array.length r.v2_cnt - 1 && not r.v2_seen.(phase).(sender)
    then begin
      r.v2_seen.(phase).(sender) <- true;
      r.v2.(phase).(sender) <- v;
      r.v2_cnt.(phase) <- r.v2_cnt.(phase) + 1
    end

  let decide t ~self r =
    r.decided <- Some r.est;
    t.count.(self) <- r.est + 1;
    if self = t.origin then t.replies.(self) <- Some r.est
    else Sim.Network.send t.net ~src:self ~dst:t.origin (Reply { v = r.est })

  let rec advance t ~self r =
    if r.phase <= t.phases then begin
      let p = r.phase in
      match r.round with
      | 1 ->
          if r.v1_cnt.(p) = t.n then begin
            let vals = ref [] in
            for s = t.n downto 1 do
              vals := r.v1.(p).(s) :: !vals
            done;
            let maj1, mult1 = most_frequent !vals in
            let d = if mult1 >= t.n - t.f then Some maj1 else None in
            record_v2 r ~sender:self ~phase:p d;
            bcast t ~self (Vote2 { phase = p; v = d });
            r.round <- 2;
            advance t ~self r
          end
      | 2 ->
          if r.v2_cnt.(p) = t.n then begin
            let vals = ref [] in
            for s = t.n downto 1 do
              match r.v2.(p).(s) with
              | Some v -> vals := v :: !vals
              | None -> ()
            done;
            let maj2, mult2 = most_frequent !vals in
            r.maj2 <- maj2;
            r.mult2 <- mult2;
            if self = p then begin
              let kv = if mult2 > 0 then maj2 else r.est in
              if r.king_v.(p) = None then r.king_v.(p) <- Some kv;
              bcast t ~self (King { phase = p; v = kv })
            end;
            r.round <- 3;
            advance t ~self r
          end
      | _ -> (
          match r.king_v.(p) with
          | None -> ()
          | Some kv ->
              r.est <-
                (if t.guard && r.mult2 >= t.n - t.f then r.maj2 else kv);
              r.phase <- p + 1;
              r.round <- 1;
              if r.phase > t.phases then decide t ~self r
              else begin
                record_v1 r ~sender:self ~phase:r.phase r.est;
                bcast t ~self (Vote1 { phase = r.phase; v = r.est });
                advance t ~self r
              end)
    end

  let start_replica t ~self =
    let r = t.reps.(self) in
    record_v1 r ~sender:self ~phase:1 r.est;
    bcast t ~self (Vote1 { phase = 1; v = r.est });
    advance t ~self r

  let handle t ~reply:_ ~self ~src = function
    | Start -> start_replica t ~self
    | Vote1 { phase; v } ->
        let r = t.reps.(self) in
        record_v1 r ~sender:src ~phase v;
        advance t ~self r
    | Vote2 { phase; v } ->
        let r = t.reps.(self) in
        record_v2 r ~sender:src ~phase v;
        advance t ~self r
    | King { phase; v } ->
        let r = t.reps.(self) in
        (* Only the phase's king may settle the tiebreaker; duplicates are
           first-delivery-wins. *)
        if
          src = phase && phase >= 1
          && phase <= Array.length r.king_v - 1
          && r.king_v.(phase) = None
        then begin
          r.king_v.(phase) <- Some v;
          advance t ~self r
        end
    | Reply { v } ->
        if self = t.origin && t.replies.(src) = None then
          t.replies.(src) <- Some v

  let create_with ?(seed = 42) ?delay ?faults ?(guard = true) ~n () =
    if n < 4 then invalid_arg "Sync_counter.create: n must be >= 4 (f >= 1)";
    let f = resilience_of_n n in
    {
      net = Sim.Network.create ~seed ?delay ?faults ~corrupt ~label ~n ();
      n;
      f;
      phases = f + 1;
      guard;
      count = Array.make (n + 1) 0;
      reps = [||];
      origin = 0;
      replies = [||];
      completed = 0;
    }

  let create ?seed ?delay ?faults ~n () = create_with ?seed ?delay ?faults ~n ()

  let net t = t.net

  let value t = t.completed

  let correct t p =
    not (Sim.Network.crashed t.net p || Sim.Network.byzantine t.net p)

  let start t ~reply:_ ~op:_ ~origin =
    t.origin <- origin;
    t.replies <- Array.make (t.n + 1) None;
    t.reps <-
      Array.init (t.n + 1) (fun i ->
          fresh_rstate t (if i = 0 then 0 else t.count.(i)));
    start_replica t ~self:origin;
    for dst = 1 to t.n do
      if dst <> origin then Sim.Network.send t.net ~src:origin ~dst Start
    done

  let verdict t ~origin:_ _ =
    (* Oracle checks over the replicas the adversary does not own: first
       agreement (the spec this counter exists for), then completeness. *)
    let disagreement = ref None and incomplete = ref None in
    let witness = ref None in
    for p = 1 to t.n do
      if correct t p then
        match t.reps.(p).decided with
        | None -> if !incomplete = None then incomplete := Some p
        | Some v -> (
            match !witness with
            | None -> witness := Some (p, v)
            | Some (q, w) ->
                if v <> w && !disagreement = None then
                  disagreement := Some (q, w, p, v))
    done;
    (match !disagreement with
    | Some (q, w, p, v) ->
        raise
          (Counter.Counter_intf.Stall
             (Printf.sprintf
                "spec: agreement violated: replica %d decided %d but replica \
                 %d decided %d"
                q w p v))
    | None -> ());
    (match !incomplete with
    | Some p ->
        raise
          (Counter.Counter_intf.Stall
             (Printf.sprintf
                "sync round incomplete: replica %d never decided (crashed \
                 participant?)"
                p))
    | None -> ());
    (* The operation's value: majority of the replies the origin collected
       (>= n - f of them agree once agreement holds, so corrupted replies
       cannot outvote them). *)
    let replies = ref [] in
    for p = t.n downto 1 do
      match t.replies.(p) with
      | Some v -> replies := v :: !replies
      | None -> ()
    done;
    match !replies with
    | [] ->
        raise
          (Counter.Counter_intf.Stall "sync-count: origin collected no reply")
    | vs ->
        let v, _ = most_frequent vs in
        t.completed <- t.completed + 1;
        v

  let copy t net =
    { t with net; count = Array.copy t.count; replies = Array.copy t.replies }
end

include Counter.Host.Make (Protocol)

let create_with ?seed ?delay ?faults ?guard ~n () =
  host (Protocol.create_with ?seed ?delay ?faults ?guard ~n ())

let resilience t = (core t).Protocol.f

let phases t = (core t).Protocol.phases

let correct t p = Protocol.correct (core t) p

let king_plan ~n ~b =
  let f = (n - 1) / 3 and b = min b n in
  let victims =
    List.init (min b (f + 1)) (fun i -> f + 1 - i)
    @ List.init (max 0 (b - (f + 1))) (fun i -> n - i)
  in
  let rules =
    [| Sim.Fault.Off_by 7; Sim.Fault.Max_int; Sim.Fault.Replay_stale |]
  in
  {
    Sim.Fault.none with
    Sim.Fault.byz =
      List.map
        (fun p -> { Sim.Fault.processor = p; trigger = Sim.Fault.At 0. })
        victims;
    byz_rules = List.mapi (fun i p -> (p, rules.(i mod 3))) victims;
    byz_equiv = List.filteri (fun i _ -> i mod 2 = 0) victims;
  }
