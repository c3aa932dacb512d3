(** Durable WAL-backed counter on a simulated object store.

    Registry name ["durable"]. Origins [1 .. n] send increments to the
    single writer (processor 1, which doubles as origin 1); the writer
    assigns the value, makes it durable with a compare-and-swap append
    into the active WAL chunk on the {!Sim.Store} hosted at processor
    [n+1], and only then acks. Chunks roll through a CAS-guarded
    manifest, snapshots materialize count + dedup table, GC deletes
    covered objects — layout and recovery procedure in
    docs/DURABILITY.md, object codecs and the shared replay fold in
    {!Wal}.

    Unlike every other counter in the registry, [recover:P@T] revival of
    the writer is {e not} amnesia: the first delivery reaching the
    revived writer triggers WAL recovery (fence the manifest epoch,
    re-read manifest + snapshot + live chunks, {!Wal.replay}) and the
    counter resumes its exact pre-crash count. Origin retries are
    deduplicated by a per-origin [(op, value)] table, so an increment
    whose first append survived a lost ack is re-acked, never
    re-applied.

    Failure-awareness mirrors {!Retire_ft}: with {!Sim.Fault.none} no
    timers are armed and no Rng draws happen — runs are bit-identical
    to the golden. The four ported oswald specs are checked at
    runtime by {!Wal.Monitor}; a violation surfaces as a
    ["spec: ..."]-prefixed {!Counter.Counter_intf.Stall}, which the
    model checker maps to its durability properties. *)

module Protocol : sig
  include Counter.Counter_intf.CORE

  val create_raw :
    ?seed:int ->
    ?delay:Sim.Delay.t ->
    ?faults:Sim.Fault.t ->
    ?cas:bool ->
    ?chunk_records:int ->
    ?snap_every:int ->
    n:int ->
    unit ->
    t
end
(** The protocol core, for counters that host it in another configuration
    ({!Baselines.Durable_no_cas}). *)

include Counter.Counter_intf.S
(** Open-loop operations run one after another (see
    {!Counter.Counter_intf.CORE.serialising}): the writer's pipeline
    serves one increment at a time, so a backlog shows up as latency. *)

val create_raw :
  ?seed:int ->
  ?delay:Sim.Delay.t ->
  ?faults:Sim.Fault.t ->
  ?cas:bool ->
  ?chunk_records:int ->
  ?snap_every:int ->
  n:int ->
  unit ->
  t
(** Full-control constructor. [~cas:false] turns every conditional
    write into a blind put — the ["durable-no-cas"] negative control
    whose lost-update counterexample test/data pins. [chunk_records]
    (default 8) bounds records per WAL chunk before rolling;
    [snap_every] (default 16) is the count delta that triggers a
    snapshot. *)

val replays : t -> int
(** Completed WAL recoveries (writer revivals that re-read the store). *)

val live_count : t -> int
(** The writer's in-memory count — volatile state, for tests comparing
    it against the durable {!value}. *)

val store : t -> Sim.Store.t
(** The backing store, for {!Wal.audit} and direct inspection. *)

val spec_violation : t -> string option
(** First oswald-spec violation the monitor detected, if any. *)
