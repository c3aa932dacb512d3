open Counter

(** Exhaustive exploration of message-delivery interleavings.

    The simulator's default delivery order — earliest arrival, ties by
    send order — is just one resolution of the model's asynchrony; a
    counter can be correct under it and wrong under another. This module
    explores {e all} of them for small configurations: it runs a counter
    under {!Sim.Network.with_scheduler}, branching at every decision
    point over every enabled event (the oldest pending message of each
    (src, dst) link — or each individual pending message, for
    destinations the protocol declared delivery-unordered — the
    earliest-armed timer, and, when a fault plan names them, crashing a
    living victim or reviving a crashed one), and checks properties on
    every complete execution.

    The search is a stateless DFS: executions are replayed from scratch
    along the committed decision prefix (counters are pure functions of
    the decision sequence, so replay is exact), with sleep-set pruning
    ({!Prune}) cutting commuting reorderings. Properties checked on each
    execution, in order of precedence:

    - no operation stalls (fault-free runs only);
    - returned values are a permutation of [0 .. ops-1]
      ({!Driver.values_permutation}; under crash plans only distinctness
      is required, {!Driver.values_distinct});
    - the history is linearizable ({!History.check} over synthetic
      unit-spaced timestamps — exact, because operations are
      sequential);
    - the Hot Spot Lemma holds ({!Hotspot.check}; under fault plans
      {!Hotspot.check_under_faults}, and the first violation is the
      oldest);
    - on fault-free each-once schedules, the bottleneck load is at least
      the paper's [k] ({!Core.Lower_bound.satisfied_by}, which exempts a
      single processor) — the Lower Bound Theorem, checked on {e every}
      interleaving rather than the adversary's.

    See docs/MODELCHECK.md for the model, its guarantees and its
    limits. *)

type config = {
  max_states : int;
      (** Budget on decision points discovered; exceeding it yields
          {!Budget_exhausted}. *)
  max_depth : int;
      (** Decisions per execution beyond which runs are completed
          deterministically (first enabled event) without branching;
          reaching it downgrades {!Exhausted_ok} to
          {!Budget_exhausted}. *)
  prune : Prune.mode;
  check_bound : bool;
      (** Check [m_b >= k] on fault-free each-once executions. *)
  check_progress : bool;
      (** Check CounterProgress on crash/recover executions: once every
          crashed victim has been revived and quiescence reached, an
          operation may only stall for an origin-local reason (its
          origin was down, or it gave up retrying). *)
}

val default_config : config
(** [{ max_states = 200_000; max_depth = 400; prune = Sleep;
      check_bound = true; check_progress = false }] *)

type property =
  | Values_wrong  (** Completed values are not a permutation of 0..ops-1. *)
  | Duplicate_value  (** Same value returned twice (checked under crashes). *)
  | Not_linearizable
  | Hotspot_violated
  | Unexpected_stall  (** An operation stalled with no fault plan. *)
  | Bound_violated  (** Bottleneck load below the paper's [k]. *)
  | Diverged  (** No quiescence: the engine's storm guard tripped. *)
  | Lsn_inconsistent
      (** Durability: a WAL chunk was rewritten non-append, held
          non-consecutive LSNs, or a covered object was lost
          (SafetyLsnConsistency, via {!Core.Wal.Monitor}). *)
  | Manifest_regressed
      (** Durability: the manifest regressed or was deleted
          (SafetyManifestMonotonicity). *)
  | Counter_regressed
      (** Durability: recovery reconstructed a count at or below a value
          already acked to an origin (SafetyCounterMonotonicity). *)
  | Agreement_violated
      (** Byzantine agreement: two correct (neither crashed nor turned)
          replicas decided different values for the same operation — the
          per-op oracle of {!Core.Sync_counter} stalled with a
          ["spec: agreement violated"] reason. *)
  | No_progress
      (** Liveness: an operation stalled for a non-origin-local reason
          though every crashed victim was revived and all messages
          delivered (CounterProgress; requires [config.check_progress]). *)

val property_name : property -> string
(** Stable kebab-case name, used in counterexample files. *)

val property_of_name : string -> (property, string) result

type violation = {
  property : property;
  detail : string;
  decisions : Enabled.key list;
      (** The complete decision sequence of the violating execution —
          replaying it through {!run_schedule} reproduces the violation
          deterministically. *)
}

type verdict =
  | Exhausted_ok  (** Every interleaving explored; all properties held. *)
  | Violation_found of violation
  | Budget_exhausted
      (** The state or depth budget tripped before the space was covered
          and no violation was found in the part explored. *)

type stats = {
  executions : int;  (** Complete executions property-checked. *)
  states : int;  (** Decision points discovered. *)
  max_depth_seen : int;
  max_enabled : int;  (** Widest enabled set at any decision point. *)
  sleep_skips : int;  (** Branches pruned by inherited sleep sets. *)
  depth_capped : int;  (** Decisions taken past [max_depth]. *)
}

type outcome = { verdict : verdict; stats : stats }

val validate_plan : Sim.Fault.t -> n:int -> (unit, string) result
(** Whether the explorer can check this fault plan at this (already
    rounded) size: no probabilistic clause (drop/dup/partitions), no
    store clause (sdrop/sdup/sslow/sout), and every crash and Byzantine
    victim inside [1 .. n]. The [Error] message is one line.
    {!check} and {!run_schedule} raise [Invalid_argument] on such a
    plan. *)

val check :
  ?seed:int ->
  ?faults:Sim.Fault.t ->
  ?config:config ->
  Counter_intf.counter ->
  n:int ->
  schedule:Schedule.t ->
  outcome
(** [check (module C) ~n ~schedule] explores every delivery interleaving
    of the schedule against a fresh counter per execution ([seed],
    default 42, fixes the counter's internal seed and the schedule's own
    draws — exploration branches over {e delivery order}, not seeds).

    [faults] may name crash victims ([crash:P@...] clauses), revivals
    ([recover:P@...]) and Byzantine victims ([byz:P@...], with their
    [byzval]/[byzeq] rewrite rules kept verbatim) — the trigger times
    are ignored and re-decided adversarially: the explorer branches over
    crashing each living victim, reviving each crashed one and turning
    each honest Byzantine victim at {e every} decision point (each
    victim crashes, revives or turns at most once per execution; turn
    branches lead the depth-first order, so corrupted-early worst cases
    are explored first). A plan {!validate_plan} refuses raises
    [Invalid_argument]: probabilistic clauses (drop/dup/partitions)
    sample the engine's rng, store clauses (sdrop/sdup/sslow/sout) are
    subsumed by the adversary already owning delivery of store traffic,
    and a victim outside [1 .. n] names no processor. *)

val run_schedule :
  ?seed:int ->
  ?faults:Sim.Fault.t ->
  ?config:config ->
  Counter_intf.counter ->
  n:int ->
  schedule:Schedule.t ->
  decisions:Enabled.key list ->
  (violation option, string) result
(** Re-execute one decision sequence (a counterexample's [decisions])
    and re-check all properties: [Ok (Some v)] = the violation
    reproduces, [Ok None] = the execution is clean, [Error _] = the
    sequence does not correspond to an execution (a decision names an
    event that is not enabled — wrong counter, n, seed or file).
    Decisions past the sequence's end (if any) default to the first
    enabled event. *)

val pp_stats : Format.formatter -> stats -> unit

val pp_violation : Format.formatter -> violation -> unit

val pp_verdict : Format.formatter -> verdict -> unit
