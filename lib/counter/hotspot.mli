(** Mechanical Hot Spot Lemma checker.

    Hot Spot Lemma (Section 2): if processors [p] and [q] increment the
    counter in direct succession then [I_p], the set of processors that
    send or receive a message during [p]'s operation, must intersect
    [I_q] — otherwise no processor involved in [q]'s operation knows the
    new counter value and [q] would read a stale value.

    The lemma is a *necessary* property of any correct counter, so checking
    it on executions is a sanity check of both the implementations and the
    trace machinery: every correct counter must pass, and a deliberately
    broken counter (see the test suite's [Amnesiac] counter) must fail it
    and simultaneously return wrong values.

    Every check here is one {!Sim.Trace.disjoint_pairs} pass: linear in
    the traces' total events, with no per-pair allocation. *)

type violation = {
  first_op : int;  (** Index of the earlier operation. *)
  second_op : int;
  first_origin : int;
  second_origin : int;
}

val check : Sim.Trace.t list -> violation list
(** [check traces] examines every consecutive pair of operation traces
    (chronological order) and returns all pairs with disjoint processor
    sets, oldest pair first. Empty result = lemma holds on this
    execution. *)

val holds : Sim.Trace.t list -> bool
(** [holds traces] iff [check traces = []]; stops at the first
    violation. *)

val check_under_faults : Sim.Trace.t list -> violation list
(** The lemma as it applies under a fault plan. It is proven for
    fault-free executions, so it is checked within fault-free segments:
    an operation during which a fault fired (a trace with a fault
    annotation) ends a segment, excusing its pairs with both neighbours,
    and an operation that delivered no message (its origin was already
    dead, say) is skipped, so its neighbours form a pair. Violations come
    oldest segment first, chronological within each. Without faults or
    message-less operations this is {!check}. *)

val pp_violation : Format.formatter -> violation -> unit
