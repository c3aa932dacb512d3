(** The retirement-tree counter with {e strictly processor-local state} —
    the reference implementation of Section 4 as a real distributed
    protocol.

    {!Retire_counter} keeps each tree node's state in one shared record
    and lets the message handler consult ground truth (e.g. the node's
    current worker) — convenient for simulation, but a shortcut a real
    deployment does not have. This module re-implements the protocol so
    that a processor's handler reads and writes {e only that processor's
    own state}:

    - a processor's knowledge of a node it works for (its {e role}: age,
      believed parent/children workers, and at the root the counter
      value) is assembled exclusively from the handoff pieces its
      predecessor sent;
    - messages that reach a processor before its role is fully assembled
      (the handshake races the paper waves off as "a proper handshaking
      protocol") are buffered inside the pending role and replayed on
      activation;
    - a retired processor remembers only its own successor per node and
      forwards strays one hop — so a message can chase a fast-retiring
      node through several hops, each a real charged message;
    - initial knowledge is exactly what the paper grants: "all the
      processors can compute all initial identifiers locally".

    The one remaining non-local operation is the overflow allocator that
    hands out replacement identifiers beyond a node's reserved interval
    (in a deployment this would be a pre-partitioned spare pool; see
    DESIGN.md on interval sizing).

    The test suite checks this implementation against {!Retire_counter}:
    identical values on identical schedules, the same O(k) bottleneck,
    and near-identical message counts (they differ only through
    multi-hop stale forwarding and handshake buffering). *)

include Counter.Counter_intf.CONCURRENT

val create_with :
  ?seed:int -> ?delay:Sim.Delay.t -> ?faults:Sim.Fault.t -> Retire_counter.config -> t

val total_retirements : t -> int

val stale_forwards : t -> int
(** Messages that had to chase a retired worker (each hop counted). *)

val buffered_messages : t -> int
(** Messages that arrived before their target role was assembled and
    were replayed on activation — the handshake the paper abstracts
    away, made visible. *)

val active_roles : t -> int
(** Current number of (processor, node) role assignments — equals the
    tree's inner-node count at quiescence. *)
