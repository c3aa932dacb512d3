(** A distributed counter layered over a quorum system — the "Dynamic
    Quorum System" relative the paper mentions, in its simplest static
    form.

    Every processor keeps a versioned register [(value, version)]. An
    [inc] by processor [p] for the [s]-th operation:

    + {b read phase}: [p] asks every member of the strategy's quorum for
      slot [s] for its register and takes the pair with the highest
      version — since every earlier write covered a quorum, and quorums
      pairwise intersect, the highest version seen is the current counter
      value [v];
    + {b write phase}: [p] writes [(v+1, version+1)] back to the same
      quorum and waits for acknowledgements, then returns [v].

    Messages per operation: about [4 |Q|] ([p]'s own membership is served
    locally), so load follows the quorum system's geometry: majorities
    cost Theta(n) per processor over the each-once sequence, grids
    Theta(sqrt n), tree quorums pile Theta(n) onto the tree root — all
    far above the paper's O(k), which is the point of experiment E5/E8.

    The functor takes the quorum system; {!Over_majority}, {!Over_grid},
    {!Over_tree}, {!Over_wall} and {!Over_plane} are the instantiations
    used by the registry.

    {b Failure awareness} (only active when created with a {!Sim.Fault}
    plan; without one, no timers are armed and behaviour is bit-identical
    to the failure-oblivious protocol): each quorum attempt is stamped
    with a round number and guarded by a local timeout timer. On timeout
    the client suspects the silent members (in an origin-local suspicion
    table, so quorum choice stays origin-local), doubles the timeout, and
    retries on the next quorum of the rotation that avoids all suspects;
    when suspicion blocks the entire rotation it falls back to asking
    {e everyone} and waiting for a majority of answers. After a bounded
    attempt budget the operation stalls ({!Counter.Counter_intf.Stall})
    instead of hanging.

    Completion guarantee: with the majority system, every operation by a
    live origin completes under any [f < ceil(n/2)] crash-stop failures
    (a live majority always exists and fallback waits for exactly a
    majority). Correctness caveat for the {e other} geometries: a
    fallback majority does not necessarily intersect a small structured
    quorum (a grid row-plus-column, a tree path), so a counter over grid,
    tree, wall or plane can lose linearizability once fallback engages —
    completion, not correctness, is the guarantee there (see
    docs/FAULTS.md). *)

module Make (_ : Quorum.Quorum_intf.S) : sig
  include Counter.Counter_intf.S
  (** Every operation — closed-loop, batch member or open-loop — runs on
      its own client record, matched to replies by round stamp, so the
      closed and the open loop are one client. Every round an operation
      used keeps resolving to it until it completes or gives up: a late
      read reply still raises the read's maximum, and a late reply to
      the operation's current phase still clears the origin's suspicion
      of its sender, but only answers to the current round count toward
      the quorum. Under a fault plan, an operation at a crashed origin
      still sends (the network suppresses the sends), then times out and
      gives up.

      {b Semantics caveat}: read-max/write-back is not an atomic
      fetch-and-increment — two overlapping operations can read the same
      maximum and return the same value, so under genuine overlap a
      quorum counter is neither linearizable nor quiescently consistent
      ([dcount load] reports the duplicate values honestly). Sequential
      dispatch, where the paper's model lives, is unaffected. *)
end

module Over_majority : Counter.Counter_intf.S

module Over_grid : Counter.Counter_intf.S

module Over_tree : Counter.Counter_intf.S

module Over_wall : Counter.Counter_intf.S

module Over_plane : Counter.Counter_intf.S
