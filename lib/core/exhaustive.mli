(** Exhaustive verification over operation orders.

    For the paper's smallest non-trivial configuration (k = 2, n = 8) the
    space of each-processor-once operation orders is small enough to
    enumerate completely: all [8! = 40320] permutations. Under a
    deterministic delay model each order determines the entire execution,
    so checking every permutation turns the test suite's sampled claims
    into exhaustive ones for that configuration:

    - the counter returns [0 .. n-1] in order on {e every} schedule;
    - the Hot Spot Lemma holds between {e all} consecutive operations of
      {e every} schedule;
    - the Lower Bound Theorem's [m_b >= k] holds on {e every} schedule
      (not only the adversary's);
    - and the worst/best bottleneck over all orders brackets what any
      adversary — including the paper's — can extract.

    The module enumerates permutations in lexicographic order with a
    checker callback; {!verify_counter} packages the standard checks. *)

type stats = {
  orders : int;  (** Permutations checked. *)
  all_correct : bool;
  all_hotspot : bool;
  all_bound : bool;
      (** [m_b >= k] everywhere ({!Lower_bound.satisfied_by}). *)
  min_bottleneck : int;
  max_bottleneck : int;
  min_messages : int;
  max_messages : int;
}

val max_permutation_n : int
(** The largest [n] {!permutations} accepts (9). *)

val permutations : int -> int list Seq.t
(** Lazy lexicographic permutations of [1 .. n] ([n!] elements). Raises
    [Invalid_argument] when [n < 0] or [n > ]{!max_permutation_n}: 10!
    forced list-of-int elements is past the point of politeness, and
    every in-repo caller that genuinely wants a bounded prefix goes
    through {!verify_counter}[ ~limit] instead. *)

val verify_counter :
  ?seed:int ->
  ?limit:int ->
  Counter.Counter_intf.counter ->
  n:int ->
  stats
(** Run every each-once order (or the first [limit], default all) against
    a fresh counter and aggregate the checks. Raises [Invalid_argument]
    if [n > 9] with no limit (10! executions is past the point of
    politeness). *)

val pp_stats : Format.formatter -> stats -> unit
