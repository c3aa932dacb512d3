(** Per-processor message-load accounting.

    Section 3 of the paper defines the message load [m_p] of processor [p]
    as the number of messages [p] sends or receives over an operation
    sequence, and the bottleneck processor as one maximising [m_p]. This
    module is the ground truth for every experiment: {!Network} calls
    {!on_send} and {!on_recv} for each message, attributed to *processor
    identifiers* (not protocol roles), exactly as the paper counts.

    The table auto-grows: protocols that hire replacement processors beyond
    the initial [n] (see the discussion of replacement supply in DESIGN.md)
    are still accounted for, and [overflow_processors] reports how many such
    hires occurred. *)

type t

val create : n:int -> t
(** Accounting table for processors [1 .. n] (auto-growing above [n]). *)

val n : t -> int
(** The declared number of processors. *)

val on_send : t -> int -> unit

val on_recv : t -> int -> unit

val on_drop : t -> unit
(** Charge one lost message (random drop, partition cut, delivery to or
    send from a crashed processor). Fault accounting is global, not
    per-processor: a dropped message has no receive to attribute. *)

val on_duplicate : t -> unit
(** Charge one spurious extra delivery injected by the fault layer. *)

val on_crash : t -> unit
(** Record one processor crash (a processor crashes at most once per life:
    a second crash needs an intervening {!on_recover}). *)

val on_recover : t -> unit
(** Record one crashed processor rejoining ([recover:P@T] firing). *)

val on_emergency_retirement : t -> unit
(** Record one crash-triggered role reassignment: a failure-aware protocol
    retired a dead (or deposed) worker's role to a fresh processor outside
    the normal age-triggered retirement path. Charged by the protocol, not
    the network. *)

val dropped : t -> int
(** Messages the fault layer discarded (never delivered). Their sends are
    still charged to the sender — the message left the processor. *)

val duplicated : t -> int
(** Extra copies the fault layer injected. Each copy's receive is charged
    to the destination on delivery. *)

val crashes : t -> int
(** Crash events so far (a recover-then-re-crash counts twice). *)

val recoveries : t -> int
(** Crashed processors revived so far. *)

val emergency_retirements : t -> int
(** Crash-triggered role reassignments recorded by the protocol. *)

val on_byzantine : t -> unit
(** Record one processor turning Byzantine ([byz:P@T] firing). *)

val on_corruption : t -> unit
(** Charge one payload rewritten by a Byzantine sender's [byzval] rule. *)

val byzantine : t -> int
(** Processors turned Byzantine so far. *)

val corruptions : t -> int
(** Payloads rewritten by Byzantine senders so far. *)

val sent : t -> int -> int
(** Messages sent by a processor so far. *)

val received : t -> int -> int

val load : t -> int -> int
(** [m_p = sent + received]. *)

val total_messages : t -> int
(** Total messages exchanged (each message counted once). *)

val total_load : t -> int
(** [sum_p m_p = 2 * total_messages]. *)

val average_load : t -> float
(** [total_load / n] — the quantity [2L] guaranteeing a bottleneck
    processor of load at least itself. *)

val bottleneck : t -> int * int
(** [(p, m_p)] for a processor maximising the load (smallest id wins
    ties). [(0, 0)] when no message has flowed. *)

val loads : t -> (int * int) list
(** All [(p, m_p)] with [m_p > 0], ascending processor id. *)

val load_array : t -> int array
(** Dense array of loads for processors [1 .. n] (index 0 unused);
    processors above [n] are *not* included — use {!loads} for those. *)

val overflow_processors : t -> int
(** Number of processors with id > n that exchanged at least one message. *)

val checksum : t -> int
(** Deterministic fingerprint (FNV-1a) of the full per-processor
    (sent, received) vector, including overflow hires. Two runs have equal
    checksums iff their complete load vectors are identical — the compact
    golden value the determinism regression tests pin. The fault counters
    ({!dropped}, {!duplicated}, {!crashes}) are mixed in only when one of
    them is non-zero, so fault-free runs keep their historical values; the
    recovery-era counters ({!recoveries}, {!emergency_retirements}) get the
    same treatment in their own guarded block, preserving crash-only
    checksums too, as do the Byzantine counters ({!byzantine},
    {!corruptions}). *)

val reset : t -> unit

val copy : t -> t
(** Independent deep copy of the current counts. *)

val merge_into : dst:t -> t -> unit
(** Add all counts of the source into [dst] (for aggregating repetitions). *)

val pp_summary : Format.formatter -> t -> unit
