(** Trace of the process of a single operation.

    Section 2 of the paper models the process of one [inc] as a directed
    acyclic graph whose nodes are "processor [q] performing some
    communication" and whose arcs are messages (Fig. 1). A trace records
    every message of one operation in delivery order; because a message can
    only be sent as a (causal) consequence of the operation's earlier
    messages, delivery order is a topological order of the DAG. From a trace
    we derive:

    - [I_p], the set of processors that send or receive during the process —
      the object of the Hot Spot Lemma;
    - the communication list of Fig. 2 (see {!Comm_list});
    - the message count of the process, which is what the lower-bound
      adversary maximises. *)

type event = {
  seq : int;  (** Delivery order within the whole run (globally increasing). *)
  time : float;  (** Virtual delivery time. *)
  src : int;  (** Sending processor. *)
  dst : int;  (** Receiving processor. *)
  tag : string;  (** Protocol-level label ("inc", "val", "handoff", ...). *)
  parent : int;
      (** [seq] of the delivery during whose handling this message was
          sent (causal predecessor), or [0] when the send initiated the
          operation from outside any handler. Local timers propagate the
          causal parent of the event that scheduled them. *)
}

type fault_kind =
  | Dropped  (** lost in transit (random drop, partition cut, dead peer) *)
  | Duplicated  (** a spurious extra copy was injected *)
  | Crashed  (** a processor crash-stopped ([fault_src = fault_dst]) *)
  | Recovered  (** a crashed processor rejoined ([fault_src = fault_dst]) *)
  | Turned_byzantine
      (** a processor turned adversarial ([fault_src = fault_dst]) *)
  | Corrupted
      (** a Byzantine sender's rule rewrote this message's payload *)

type fault = {
  fault_time : float;
  fault_src : int;
  fault_dst : int;
  kind : fault_kind;
}
(** A fault the {!Fault} layer injected while this operation was open.
    Faults are side annotations: they are {e not} events, so they never
    perturb {!message_count}, {!processors}, or the DAG. *)

type t

val create : ?start_time:float -> op_index:int -> origin:int -> unit -> t
(** Fresh empty trace for operation number [op_index] initiated by processor
    [origin]. [start_time] (default 0) is the virtual time at which the
    operation was issued, used by {!duration}. *)

val op_index : t -> int

val origin : t -> int

val record : t -> event -> unit
(** Append a delivered message. Events must be recorded in delivery order. *)

val events : t -> event list
(** All events, chronological. *)

val message_count : t -> int
(** Number of messages in the process (= number of DAG arcs). *)

val record_fault : t -> fault -> unit
(** Append a fault annotation (recorded by {!Network} when a fault fires
    while this operation is open). *)

val faults : t -> fault list
(** Fault annotations, chronological. Empty for fault-free runs. *)

val fault_count : t -> int

val duration : t -> float
(** Virtual time from the operation's start to its last delivery — the
    asynchronous-model latency of the process under the network's delay
    model (0 for purely local operations). *)

val processors : t -> int list
(** [I_p]: sorted, de-duplicated processors appearing as sender or receiver,
    including the origin (which at least sends the first message; for purely
    local operations it is still the only member). *)

val touches : t -> int -> bool
(** [touches t q] iff processor [q] is in {!processors}. One scan of the
    events, stopping at the first match; allocates nothing. *)

val disjoint_pairs : t list -> (t * t) list
(** [disjoint_pairs traces] is every consecutive pair [(a, b)] of
    [traces] whose processor sets [I_a] and [I_b] share no processor, in
    list order (chronological for a run's traces). It makes one pass over
    each trace's origin and events, against one stamp table per call, so
    its cost is linear in the total number of events plus the span of
    processor ids (bounded by four slots per id occurrence; wider-spread
    ids use a hash table). Nothing is allocated per pair beyond the
    result. Lists of fewer than two traces give [[]]. *)

val chain_intersects : t list -> bool
(** [chain_intersects traces] iff {!disjoint_pairs} is empty — the Hot
    Spot Lemma predicate over a run. Same pass, stopping at the first
    disjoint pair. *)

val intersects : t -> t -> bool
(** [intersects a b] iff [I_a] and [I_b] share a processor — the Hot Spot
    Lemma predicate for consecutive operations; [chain_intersects [a; b]]. *)

val pp : Format.formatter -> t -> unit
(** Render the process as an arrow diagram, one message per line
    ("[3 -(inc)-> 17 @t=1.0]"), in the spirit of the paper's Fig. 1. *)

val pp_lanes : Format.formatter -> t -> unit
(** Message-sequence chart: one column per involved processor, one row
    per message, arrows drawn between the sender's and receiver's lanes —
    the view protocol engineers actually debug with. *)

val to_dot : t -> string
(** Graphviz rendering of the process DAG, one node per processor
    {e occurrence} (so a processor appearing twice — e.g. the initiator
    receiving its answer — appears as two DAG nodes, exactly as in the
    paper's Fig. 1). Message arcs are labelled with their protocol tag
    and delivery time. Pipe into [dot -Tsvg] to regenerate the figure. *)
