(** The Lower Bound Theorem (Section 3), as executable checks.

    {b Theorem.} In any algorithm that implements a distributed counter on
    [n] processors, over a sequence of [n] inc operations in which each
    processor increments exactly once, there is a bottleneck processor
    that sends and receives Omega(k) messages, where [k * k^k = n] — i.e.
    [k = Theta(log n / log log n)].

    The proof machinery (communication lists, the exponential weight
    function, the adversarial choice of operation order) lives in
    {!Sim.Comm_list}, {!Weights} and {!Adversary}; this module provides
    the bound itself and predicates that experiments and tests apply to
    measured runs. *)

val k_of_n : int -> int
(** The integer [k] of the theorem: the largest [k >= 1] with
    [k * k^k <= n]. *)

val satisfied_by : n:int -> bottleneck_load:int -> bool
(** [satisfied_by ~n ~bottleneck_load] — does a measured run obey the
    bound [m_b >= k]? Every correct counter implementation must satisfy
    this on each-processor-once sequences; it is asserted across the whole
    test suite. (The theorem's constant is 1 in the integer reading
    [m_b >= k]; we check exactly that.) With [n < 2] it holds
    trivially: one processor's each-once sequence is a single local
    increment that needs no message, so the theorem says nothing
    there. *)

val pp_table : Format.formatter -> int list -> unit
(** Print [n -> k] for a list of network sizes (the theory table of
    experiment E3). *)
