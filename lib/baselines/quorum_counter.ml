type payload =
  | Read_req of { round : int }
  | Read_rep of { round : int; value : int; version : int }
  | Write_req of { round : int; value : int; version : int }
  | Write_ack of { round : int }

let label = function
  | Read_req _ -> "read"
  | Read_rep _ -> "read-rep"
  | Write_req _ -> "write"
  | Write_ack _ -> "ack"

(* Virtual-time budget for the first attempt of a phase; doubled on every
   retry (exponential backoff). Generous against the ~1-unit delay models
   so fault-free-slow is rarely mistaken for dead — and timers are local
   (no load), so patience costs nothing the paper counts. *)
let initial_timeout = 32.

(* Attempt budget per operation before the client reports a stall. *)
let max_attempts = 8

type phase = Reading | Writing

(* One operation's client: closed-loop, batch member and open-loop alike.
   [round] stamps its current quorum attempt; every round it has used
   stays in the counter's round table until it completes or gives up, so
   a late reply still finds it. [members] is the current quorum as a
   sorted array (quorums are sorted by contract), shared with the
   counter's quorum cache under a fault plan. [owed] holds one flag per
   member, sized to the quorum (reallocated only when a retry picks a
   quorum of another size): set while that member owes the current
   round an answer, so a reply finds its flag by binary search and
   clears it without allocating, and a duplicated reply finds it
   already clear and is not counted twice. [owing] counts the set
   flags; [awaiting] is how many more answers the phase needs
   (= [owing] normally; a majority in fallback mode, where the request
   goes to everyone and crashed members never answer). *)
type op = {
  id : int;  (* the host's operation id, -1 in closed loop *)
  origin : int;
  slot : int;  (* rotation slot of the operation's first quorum *)
  mutable phase : phase;
  mutable round : int;
  mutable rounds : int list;  (* every round used so far *)
  mutable members : int array;
  mutable fallback : bool;
  mutable owed : Bytes.t;  (* '\001' at index i iff members.(i) owes *)
  mutable owing : int;
  mutable awaiting : int;
  mutable value : int;
      (* reading: the value of the highest version seen; writing: the new
         counter value being installed (the operation returns
         [value - 1]) *)
  mutable version : int;
  mutable attempts : int;  (* retries so far; each doubles the timeout *)
}

(* Index of [m] in the sorted [members] between [lo] and [hi], or -1. *)
let rec search (members : int array) (m : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = members.(mid) in
    if x = m then mid
    else if x < m then search members m (mid + 1) hi
    else search members m lo mid

let index members m = search members m 0 (Array.length members)

(* No member of [members] from index [i] on is flagged in [row]. *)
let rec trusted row members i =
  i = Array.length members
  || ((not row.(members.(i))) && trusted row members (i + 1))

module Make (Q : Quorum.Quorum_intf.S) = struct
  module Protocol = struct
    type nonrec payload = payload

    type t = {
      net : payload Sim.Network.t;
      n : int;
      system : Q.t;
      failure_aware : bool;
          (* true iff created with a fault plan: only then are timeout
             timers armed and suspicion tracked, so fault-free runs are
             bit-identical to the pre-fault-layer protocol *)
      values : int array;  (* registers, index = processor *)
      versions : int array;
      local_ops : int array;
          (* per-processor operation counts: quorum choice must depend only
             on state the origin knows locally, or the process of a
             hypothetical operation would change when unrelated processors
             act — violating the prefix-stability the lower-bound proof
             relies on (and which any real distributed client satisfies) *)
      suspected : bool array option array;
          (* per-origin failure detector (lazily allocated row of n+1
             flags): origin-local for the same prefix-stability reason *)
      everyone : int array;  (* 1 .. n, the fallback's members *)
      cached_slots : int array;
      cached : int array array;
          (* the suspicion walk's quorum cache, direct-mapped over
             [Q.distinct_quorums] entries: entry [slot mod entries]
             holds slot [cached_slots.(i)]'s sorted members (-1 and
             [||] while empty). A hit needs the exact slot: the
             crumbling wall's rotation does not repeat with period
             [Q.distinct_quorums]. Both arrays are empty without a fault
             plan, where nothing is suspected, the walk stops at its
             first quorum and a cache would only hold memory. *)
      live : (int, op) Hashtbl.t;
          (* every round of every operation in flight, to its operation *)
      mutable stamps : int;  (* round stamps handed out so far *)
      mutable ops : int;
      mutable stall : string option;  (* why the last operation gave up *)
    }

    let name = "quorum-" ^ Q.name

    let describe = "read-max/write-back counter over " ^ Q.describe

    let supported_n = Q.supported_n

    let who = "Quorum_counter"

    let serialising = false

    (* ---------------------------------------------------------------- *)
    (* Origin-local suspicion                                            *)

    let suspect t origin m =
      let row =
        match t.suspected.(origin) with
        | Some row -> row
        | None ->
            let row = Array.make (t.n + 1) false in
            t.suspected.(origin) <- Some row;
            row
      in
      if m >= 1 && m <= t.n then row.(m) <- true

    let unsuspect t origin m =
      match t.suspected.(origin) with
      | Some row when m >= 1 && m <= t.n -> row.(m) <- false
      | _ -> ()

    (* The sorted members of [slot]'s quorum, from the cache when there
       is one. *)
    let quorum_at t slot =
      let entries = Array.length t.cached_slots in
      if entries = 0 then Array.of_list (Q.quorum t.system ~slot)
      else
        let i = slot mod entries in
        if t.cached_slots.(i) = slot then t.cached.(i)
        else begin
          let members = Array.of_list (Q.quorum t.system ~slot) in
          t.cached_slots.(i) <- slot;
          t.cached.(i) <- members;
          members
        end

    (* First quorum in rotation order from [from_slot] with no member the
       origin suspects — the client-side analogue of {!Quorum.Probe.search},
       driven by local suspicion instead of probe messages. [None] when
       suspicion blocks the whole rotation. *)
    let choose_quorum t ~origin ~from_slot =
      match t.suspected.(origin) with
      | None -> Some (quorum_at t from_slot)
      | Some row ->
          let distinct = Q.distinct_quorums t.system in
          let rec walk i =
            if i >= distinct then None
            else
              let members = quorum_at t (from_slot + i) in
              if trusted row members 0 then Some members else walk (i + 1)
          in
          walk 0

    let majority_need t = (t.n / 2) + 1

    (* The operation's next quorum: the first one its origin trusts, or
       everyone (majority fallback) when suspicion blocks the rotation. *)
    let choose t op =
      match choose_quorum t ~origin:op.origin ~from_slot:op.slot with
      | Some members ->
          op.members <- members;
          op.fallback <- false
      | None ->
          op.members <- t.everyone;
          op.fallback <- true

    (* Every member but the origin owes the new phase an answer; true iff
       the origin is a member. *)
    let owe_all op =
      let q = Array.length op.members in
      if Bytes.length op.owed <> q then op.owed <- Bytes.create q;
      Bytes.fill op.owed 0 q '\001';
      let self = index op.members op.origin in
      if self >= 0 then Bytes.set op.owed self '\000';
      op.owing <- (if self >= 0 then q - 1 else q);
      self >= 0

    (* [payload] to every member but the origin, in member order: the
       send order fixes the heap's sequence numbers. *)
    let broadcast t op payload =
      let members = op.members in
      for i = 0 to Array.length members - 1 do
        let m = members.(i) in
        if m <> op.origin then
          Sim.Network.send t.net ~src:op.origin ~dst:m payload
      done

    (* ---------------------------------------------------------------- *)
    (* Registers                                                         *)

    let store t member ~value ~version =
      if version > t.versions.(member) then begin
        t.versions.(member) <- version;
        t.values.(member) <- value
      end

    (* ---------------------------------------------------------------- *)
    (* Client state machine                                              *)

    (* Stamp the operation's next attempt with a fresh round. *)
    let register t op =
      t.stamps <- t.stamps + 1;
      let round = t.stamps in
      op.round <- round;
      op.rounds <- round :: op.rounds;
      Hashtbl.add t.live round op;
      round

    (* The operation completed or gave up: none of its rounds resolves
       any more, and its armed timer finds it gone. *)
    let forget t op = List.iter (Hashtbl.remove t.live) op.rounds

    let rec arm t ~reply op =
      if t.failure_aware then begin
        let round = op.round in
        Sim.Network.schedule_local t.net
          ~delay:(Float.ldexp initial_timeout op.attempts) (fun () ->
            if op.round = round && Hashtbl.mem t.live round then
              retry t ~reply op)
      end

    and read t ~reply op =
      let origin = op.origin in
      let is_member = owe_all op in
      op.phase <- Reading;
      op.value <- (if is_member then t.values.(origin) else 0);
      op.version <- (if is_member then t.versions.(origin) else -1);
      op.awaiting <-
        (if op.fallback then majority_need t - (if is_member then 1 else 0)
         else op.owing);
      let round = register t op in
      broadcast t op (Read_req { round });
      if op.awaiting <= 0 then finish_read t ~reply op else arm t ~reply op

    and finish_read t ~reply op =
      op.value <- op.value + 1;
      op.version <- op.version + 1;
      write t ~reply op

    and write t ~reply op =
      let origin = op.origin and value = op.value and version = op.version in
      ignore (owe_all op);
      store t origin ~value ~version;
      op.phase <- Writing;
      op.awaiting <- (if op.fallback then majority_need t - 1 else op.owing);
      let round = register t op in
      broadcast t op (Write_req { round; value; version });
      if op.awaiting <= 0 then complete t ~reply op else arm t ~reply op

    and complete t ~reply op =
      forget t op;
      t.ops <- t.ops + 1;
      reply ~op:op.id (op.value - 1)

    (* A phase timed out: suspect the silent members, back off, and retry
       the phase on the next quorum the origin still trusts. *)
    and retry t ~reply op =
      if Sim.Network.crashed t.net op.origin then
        give_up t op "origin crashed mid-operation"
      else if op.attempts + 1 >= max_attempts then
        give_up t op
          (Printf.sprintf "gave up after %d attempts (last quorum: %d silent)"
             (op.attempts + 1) op.owing)
      else begin
        op.attempts <- op.attempts + 1;
        for i = 0 to Array.length op.members - 1 do
          if Bytes.get op.owed i = '\001' then
            suspect t op.origin op.members.(i)
        done;
        choose t op;
        match op.phase with
        | Reading -> read t ~reply op
        | Writing -> write t ~reply op
      end

    and give_up t op reason =
      forget t op;
      t.stall <- Some reason

    (* ---------------------------------------------------------------- *)
    (* Message handler                                                   *)

    (* [src] answered [round] of [op]: count it if that is the current
       round and [src] still owes an answer; true once the phase has
       enough answers. *)
    let answered op ~round ~src =
      round = op.round
      &&
      let i = index op.members src in
      i >= 0
      && Bytes.get op.owed i = '\001'
      && begin
           Bytes.set op.owed i '\000';
           op.owing <- op.owing - 1;
           op.awaiting <- op.awaiting - 1;
           op.awaiting <= 0
         end

    (* A reply for an operation that finished the phase it answers, or
       finished altogether: a straggler under a fault plan, a bug
       without one. *)
    let unmatched t what =
      if not t.failure_aware then
        failwith ("Quorum_counter: unexpected " ^ what)

    let handle t ~reply ~self ~src = function
      | Read_req { round } ->
          Sim.Network.send t.net ~src:self ~dst:src
            (Read_rep { round; value = t.values.(self); version = t.versions.(self) })
      | Write_req { round; value; version } ->
          store t self ~value ~version;
          Sim.Network.send t.net ~src:self ~dst:src (Write_ack { round })
      | Read_rep { round; value; version } -> (
          match Hashtbl.find t.live round with
          | { phase = Reading; _ } as op ->
              if t.failure_aware then unsuspect t op.origin src;
              (* Read-max absorbs every reply, even a late one from an
                 earlier round: more information never hurts the read. *)
              if version > op.version then begin
                op.version <- version;
                op.value <- value
              end;
              if answered op ~round ~src then finish_read t ~reply op
          | { phase = Writing; _ } | (exception Not_found) ->
              unmatched t "read reply")
      | Write_ack { round } -> (
          match Hashtbl.find t.live round with
          | { phase = Writing; _ } as op ->
              if t.failure_aware then unsuspect t op.origin src;
              if answered op ~round ~src then complete t ~reply op
          | { phase = Reading; _ } | (exception Not_found) ->
              unmatched t "write ack")

    (* ---------------------------------------------------------------- *)
    (* Construction and the counter interface                            *)

    let create ?(seed = 42) ?delay ?(faults = Sim.Fault.none) ~n () =
      if Q.supported_n n <> n then
        invalid_arg ("Quorum_counter: unsupported n for " ^ Q.name);
      let system = Q.create ~n in
      let failure_aware = not (Sim.Fault.is_none faults) in
      let entries = if failure_aware then Q.distinct_quorums system else 0 in
      {
        net = Sim.Network.create ~seed ?delay ~faults ~label ~n ();
        n;
        system;
        failure_aware;
        values = Array.make (n + 1) 0;
        versions = Array.make (n + 1) 0;
        local_ops = Array.make (n + 1) 0;
        suspected = Array.make (n + 1) None;
        everyone = Array.init n (fun i -> i + 1);
        cached_slots = Array.make entries (-1);
        cached = Array.make entries [||];
        live = Hashtbl.create 16;
        stamps = 0;
        ops = 0;
        stall = None;
      }

    let net t = t.net

    let value t = t.ops

    let start t ~reply ~op:id ~origin =
      (* Slot from origin-local state only: first access by origin [p]
         uses slot [p-1] (spreading the each-once sequence across the
         full rotation), later accesses jump by [n]. *)
      let slot = origin - 1 + (t.n * t.local_ops.(origin)) in
      t.local_ops.(origin) <- t.local_ops.(origin) + 1;
      let op =
        {
          id;
          origin;
          slot;
          phase = Reading;
          round = 0;
          rounds = [];
          members = [||];
          fallback = false;
          owed = Bytes.empty;
          owing = 0;
          awaiting = 0;
          value = 0;
          version = -1;
          attempts = 0;
        }
      in
      choose t op;
      read t ~reply op

    let verdict t ~origin:_ = function
      | Some v -> v
      | None ->
          let reason =
            Option.value t.stall ~default:"operation did not complete"
          in
          raise (Counter.Counter_intf.Stall ("Quorum_counter.inc: " ^ reason))

    (* At quiescence every operation has completed or given up, so the
       copy starts with an empty round table. *)
    let copy t net =
      {
        t with
        net;
        values = Array.copy t.values;
        versions = Array.copy t.versions;
        local_ops = Array.copy t.local_ops;
        suspected = Array.map (Option.map Array.copy) t.suspected;
        cached_slots = Array.copy t.cached_slots;
        cached = Array.copy t.cached;
        live = Hashtbl.create 16;
      }
  end

  include Counter.Host.Make (Protocol)
end

module Over_majority = Make (Quorum.Majority)
module Over_grid = Make (Quorum.Grid)
module Over_tree = Make (Quorum.Tree_quorum)
module Over_wall = Make (Quorum.Crumbling_wall)
module Over_plane = Make (Quorum.Projective_plane)
