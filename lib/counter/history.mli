(** Concurrent operation histories and a linearizability check for
    fetch-and-increment.

    The paper's model is sequential, but its related work is not: Herlihy,
    Shavit & Waarts's "Linearizable counting networks" (cited in the
    paper) exists precisely because counting networks are {e not}
    linearizable under overlap. Overlapping histories come from two
    places: staggered batch runs (operation [i] injected at virtual time
    [i * stagger], experiment E20) and the open-loop load engine
    ({!Sim.Arrivals} + {!Driver.run_load}, docs/LOAD.md), which keeps
    thousands of operations in flight at once.

    For fetch-and-increment over distinct values the linearizability
    condition is exactly: whenever operation [a] completes before
    operation [b] is invoked, [a]'s value is smaller than [b]'s
    ({!check}). Histories whose operations all overlap are vacuously
    linearizable; the interesting violations appear at moderate overlap —
    experiment E20 exhibits them live on the counting network and shows
    the paper's counter (whose root serialises) staying linearizable. *)

type op = {
  origin : int;
  value : int;
  invoked_at : float;  (** Virtual time the request was injected. *)
  completed_at : float;  (** Virtual time the value reached the origin. *)
}

type verdict =
  | Linearizable
  | Violation of op * op
      (** [Violation (a, b)]: [a] completed before [b] was invoked, yet
          [a.value > b.value]. *)

(** {1 Costs}

    {!check}, {!concurrency_profile} and {!mean_overlap} copy the
    history into two arrays, one in invocation order and one in
    completion order, and sort each with [Array.sort] — O(ops log ops) —
    unless one O(ops) pass finds it already in order (the open loop's
    completions arrive in order). What follows is linear: the check's
    sweep, or one merge of the two arrays for both overlap figures.
    {!values_contiguous} is one O(ops) pass over a seen-array. {!analyze}
    builds the two arrays once and runs all four on them. *)

val check : op list -> verdict
(** O(ops log ops): sweep operations in invocation order against the
    running maximum value over operations already completed — a violation
    exists iff that maximum ever exceeds an invoked operation's value.
    The witness is deterministic and a pure function of the history
    multiset (input order never matters): [b] is the first violated
    operation in invocation order and [a] the largest value completed
    strictly before [b]'s invocation. *)

val is_linearizable : op list -> bool

val values_contiguous : op list -> bool
(** The weaker guarantee every correct counter keeps even under overlap
    (quiescent consistency): the returned values are exactly
    [0 .. ops-1]. *)

val concurrency_profile : op list -> int
(** Maximum number of operations simultaneously in flight — how much
    overlap the history actually contains. *)

val mean_overlap : op list -> float
(** Time-weighted mean number of in-flight operations over the history's
    span (first invocation to last completion); [0.] on empty or
    zero-span histories. *)

type analysis = {
  verdict : verdict;
  quiescent : bool;  (** {!values_contiguous}. *)
  linearizable : bool;
      (** [quiescent] {e and} no real-time order violation — the full
          linearizability criterion (order alone is vacuous when values
          are duplicated or missing). *)
  peak_overlap : int;  (** {!concurrency_profile}. *)
  mean_overlap : float;  (** {!mean_overlap}. *)
}

val analyze : op list -> analysis
(** All concurrent-history verdicts of one history from one sort per
    order — what {!Driver.run_load} reports and [dcount load --check]
    gates on. Each field equals what the single function above
    returns. *)

val pp_op : Format.formatter -> op -> unit

val pp_verdict : Format.formatter -> verdict -> unit
