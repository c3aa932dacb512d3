(** Software combining trees (Yew, Tzeng & Lawrie 1987; Goodman, Vernon &
    Woest 1989 — the papers the paper credits as "the first to explicitly
    aim at avoiding a bottleneck").

    A complete binary tree with one leaf per processor. An increment
    request climbs toward the root; a node that receives a request waits a
    short {e combining window} (a local timer of 1.5 virtual-time units)
    for a request from its
    other child and, if one arrives, forwards a single combined request
    carrying the sum of the counts. The root allocates a contiguous block
    [\[val, val + c)] and the grant descends the tree, splitting at each
    node according to the recorded combination (first-come first-served),
    until every participating leaf holds its own value.

    Sequentially no combining can happen: each operation climbs and
    descends the full tree (2 log n messages) and the root host carries
    Theta(n) — combining trees beat the central counter on {e contention}
    only when requests overlap, which is what {!run_batch} measures
    (experiment E11): with a batch of [b = n] concurrent increments the
    root sees exactly one combined request instead of [n].

    [combining_rate] reports the fraction of internal request arrivals
    that were absorbed by combining. *)

type t

val combined_requests : t -> int
(** Requests absorbed into a sibling's request (never travelled up). *)

val combining_rate : t -> float
(** [combined / (combined + uncombined)], 0 if no traffic. *)

val run_batch : t -> origins:int list -> (int * int) list
(** Launch all origins concurrently and run to quiescence; returns
    [(origin, value)] pairs in completion order. Values across a batch
    are distinct and contiguous. One traced operation. Raises
    [Invalid_argument] on an empty batch, an origin out of range or an
    origin listed twice. *)

include Counter.Counter_intf.S with type t := t
(** Combining is the regime the tree was designed for, and the open-loop
    path keeps it linearizable: the root allocates value blocks
    monotonically in virtual time, and every operation's allocation
    happens inside its invocation/completion interval. *)
