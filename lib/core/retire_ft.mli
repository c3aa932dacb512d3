(** Failure-aware retirement-tree counter (the paper's Section 4 protocol
    made crash-tolerant; see docs/FAULTS.md).

    Runs the exact {!Retire_counter} engine, plus a failure-aware client
    at each operation's origin that reuses the round-stamped attempt
    machinery of the quorum counters: timeouts (doubling from 32 virtual
    time units, at most 8 attempts per operation) trigger an {e audit} —
    a ping to the current worker of every inner node on the origin's root
    path — and workers that stay silent, or that answer from a
    post-recovery identity that was never re-hired, are {e deposed}: the
    role is emergency-retired to a fresh processor, with the lost job
    description reconstructed from the surviving parent/children state
    instead of the normal handoff from the (dead) incumbent.

    Replacement processors come first from the {e rejoin pool} —
    processors that crashed and later recovered ([recover:P@T] in the
    fault plan) re-enter the allocator here rather than resuming their
    stale roles — and then from the overflow allocator, bounded by an
    emergency budget (default [2n]). A crashed processor holds at most
    two roles, so f crashes force at most 2f emergency hires: the counter
    completes every live-origin inc when crashes < overflow-pool size.

    With no fault plan the client is disarmed and the counter is
    observably identical — send for send — to {!Retire_counter}
    (pinned by the goldens in test_retire_ft.ml). *)

type config = Retire_counter.config = {
  arity : int;
  depth : int;
  retire_threshold : int;
}

val paper_config : k:int -> config

val config_n : config -> int

module Protocol : sig
  include Counter.Counter_intf.CORE

  val create_with :
    ?seed:int ->
    ?delay:Sim.Delay.t ->
    ?faults:Sim.Fault.t ->
    ?emergency_handoff:bool ->
    ?overflow_pool:int ->
    config ->
    t
end
(** The protocol core, for counters that host it in another configuration
    ({!Baselines.Ft_no_handoff}). *)

type t

val create_with :
  ?seed:int ->
  ?delay:Sim.Delay.t ->
  ?faults:Sim.Fault.t ->
  ?emergency_handoff:bool ->
  ?overflow_pool:int ->
  config ->
  t
(** Build a counter with an explicit configuration. The failure-aware
    client is armed iff [faults] is given and not {!Sim.Fault.is_none}.
    [emergency_handoff] (default true) — setting it false yields the
    deliberately-broken negative control used by the model-check suite
    ({!name} ["ft-no-handoff"] in the baselines registry): emergency
    retirement re-staffs the role without reconstructing the job
    description, so a replaced root restarts the count at zero.
    [overflow_pool] (default [2n]) bounds emergency overflow hires. *)

(** {1 Inspection} *)

val config : t -> config

val tree : t -> Tree.t

val node_worker : t -> int -> int

val node_age : t -> int -> int

val retirements_of_node : t -> int -> int

val total_retirements : t -> int
(** Includes emergency retirements (also counted separately in
    {!Sim.Metrics.emergency_retirements}). *)

val stale_forwards : t -> int

val max_message_bits : t -> int

val total_bits : t -> int

val believed_consistent : t -> bool

val failure_aware : t -> bool
(** Whether the client machinery is armed (a non-empty fault plan was
    supplied at creation). *)

val emergency_nodes : t -> int list
(** Flat ids of the nodes emergency-retired during the most recent
    operation, in retirement order (empty when the last inc needed no
    emergency action) — the per-op data the Retirement Lemma checker in
    test_retire.ml consumes. *)

val emergency_hires : t -> int
(** Overflow processors consumed by emergency retirement so far (bounded
    by [overflow_pool]; rejoin-pool hires are free). *)

val rejoin_pool : t -> int list
(** Recovered processors currently waiting to be re-hired. *)

val last_attempts : t -> int
(** How many request attempts the most recent operation needed (1 on the
    fast path; each timeout-audit-retry cycle adds one). Always 1 when
    the counter is not failure-aware. The Grow Old checker scales its
    per-op age bound by this, since every attempt re-walks the path. *)

(** {1 The counter interface} *)

include Counter.Counter_intf.S with type t := t
(** [create ~n] requires [n = k^(k+1)] for some [k] (use [supported_n] to
    round up); it uses {!paper_config}. [inc] raises
    {!Counter.Counter_intf.Stall} — with the stalling reason — when the
    origin itself is crashed, the emergency pool is exhausted, or 8
    attempts expire without an answer. *)
