(** Phase-king synchronous counting under Byzantine corruption.

    The counter value is replicated at all [n] processors; every [inc]
    runs a multivalued Berman–Garay–Perry agreement over the current
    value — [f + 1] phases of three all-to-all rounds with rotating
    kings — and tolerates [f = (n - 1) / 3] Byzantine processors
    ([n > 3f]). The adversary is the fault layer: [byz]/[byzval]/[byzeq]
    clauses rewrite a turned processor's payloads at the network (this
    module supplies the [?corrupt] hook delegating to
    {!Sim.Fault.apply_rule}), so runs stay bit-deterministic and
    [Fault.none] behaviour is identical to a crash-only counter.

    This is the repo's price tag for Byzantine resilience: per operation
    every processor sends and receives Θ((f + 1)·n) messages — an
    {e inherently flat} load profile (docs/FAULTS.md), the far end of the
    bottleneck spectrum from the paper's retirement tree. Kept out of
    {!Baselines.Registry.all} for exactly that cost; resolve it by name.

    After each operation an oracle checks the replicas the plan does not
    own (neither crashed nor Byzantine): disagreement raises
    {!Counter.Counter_intf.Stall} with a ["spec: agreement violated"]
    reason — the model checker's [agreement-violated] property — and an
    undecided correct replica (a crashed participant starves the
    full-reception rounds) raises an ordinary non-spec stall. *)

module Protocol : sig
  include Counter.Counter_intf.CORE

  val create_with :
    ?seed:int ->
    ?delay:Sim.Delay.t ->
    ?faults:Sim.Fault.t ->
    ?guard:bool ->
    n:int ->
    unit ->
    t
end
(** The protocol core, for counters that host it in another configuration
    ({!Baselines.Sync_no_threshold}). *)

type t

val create_with :
  ?seed:int ->
  ?delay:Sim.Delay.t ->
  ?faults:Sim.Fault.t ->
  ?guard:bool ->
  n:int ->
  unit ->
  t
(** [create] with the round-3 threshold guard exposed. [guard] (default
    true) is the [mult2 >= n - f] test deciding whether a replica keeps
    its round-2 majority or adopts the king's tiebreaker; [~guard:false]
    adopts the king unconditionally — the deliberately broken
    [sync-no-threshold] baseline, split by any equivocating last king. *)

val resilience : t -> int
(** [f = (n - 1) / 3], the number of Byzantine processors every
    operation provably survives (with the guard on). *)

val phases : t -> int
(** [f + 1] — phases per operation, one rotating king each. *)

val correct : t -> int -> bool
(** Whether a processor is currently neither crashed nor Byzantine —
    the population the agreement oracle quantifies over. *)

include Counter.Counter_intf.S with type t := t
(** [create ~n] requires [n >= 4] (so [f >= 1]; use [supported_n]).
    [inc] raises {!Counter.Counter_intf.Stall} on an agreement violation
    (["spec: agreement violated"], impossible with the guard at
    [b <= f] turned processors), on a starved round (a crashed
    participant), or when no reply reaches the origin. Open-loop
    operations run one after another (see
    {!Counter.Counter_intf.CORE.serialising}): each runs its full
    agreement before the next one starts. *)

val king_plan : n:int -> b:int -> Sim.Fault.t
(** The plan turning [min b n] processors Byzantine at time 0, the
    strongest seats first: the kings from the last phase backwards
    (phase [p]'s king is processor [p]; the final phase's king has the
    last word on every replica's value), then the highest non-king ids.
    Rewrite rules cycle off-by-7 / max-int / replay-stale and every
    second victim equivocates. [b = 0] gives a plan equal to
    {!Sim.Fault.none}. *)
