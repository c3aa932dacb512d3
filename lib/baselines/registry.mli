(** Central catalogue of every distributed-counter implementation in the
    repository, for the CLI, experiments and tests. Each counter module is
    listed once. Every counter is hosted by {!Counter.Host}, so every one
    also implements the open-loop {!Counter.Counter_intf.CONCURRENT}
    interface. *)

val all : Counter.Counter_intf.counter list
(** Every {e correct} counter, the paper's first. *)

val concurrent_all : Counter.Counter_intf.concurrent list
(** {!all} in the open-loop {!Counter.Counter_intf.CONCURRENT} view, in
    the same order. *)

val retire_tree : Counter.Counter_intf.counter
(** The paper's counter ({!Core.Retire_counter}). *)

val retire_tree_local : Counter.Counter_intf.counter
(** The strictly processor-local variant ({!Core.Retire_local}). *)

val retire_ft : Counter.Counter_intf.counter
(** The failure-aware retire tree with emergency retirement and rejoin
    ({!Core.Retire_ft}). *)

val central : Counter.Counter_intf.counter

val static_tree : Counter.Counter_intf.counter

val counting_network : Counter.Counter_intf.counter

val quorum_majority : Counter.Counter_intf.counter

val quorum_grid : Counter.Counter_intf.counter

val sync_count : Counter.Counter_intf.counter
(** The phase-king synchronous-counting baseline tolerating f < n/3
    Byzantine processors ({!Core.Sync_counter}). Correct, but kept out
    of {!all}: its O(f·n²)-messages-per-op all-to-all exchange would
    dominate every default sweep. {!find} resolves it by name. *)

val amnesiac : Counter.Counter_intf.counter
(** Deliberately broken: no communication ({!Amnesiac}). *)

val broken : Counter.Counter_intf.counter list
(** The deliberately broken counters — negative controls for the
    correctness checkers and the model checker: {!Amnesiac} (no
    communication), {!Race_reply} (order-sensitive), {!Ft_no_handoff}
    ({!Core.Retire_ft} without the emergency handoff), {!Durable_no_cas}
    (blind puts instead of compare-and-swap) and {!Sync_no_threshold}
    (phase king without the round-3 threshold guard). Kept out of {!all}
    so experiments and sweeps never mistake them for baselines; {!find}
    resolves them by name. *)

val find : string -> Counter.Counter_intf.counter option
(** Look up by [name], searching {!all}, {!sync_count} and {!broken}. *)

val promise : string -> Counter.Promise.t
(** What the named counter promises under a fault plan:
    [Live_origins] for retire-ft, [Durable] for durable, [Agreement] for
    sync-count, [Splits] for the sync-no-threshold control,
    [Quorum_live] for the five quorum counters and [Completes] for every
    other name. *)

val names : unit -> string list
(** Names of {!all} (the broken counters are not listed). *)

val find_concurrent : string -> Counter.Counter_intf.concurrent option
(** {!find} in the open-loop view: resolves every name {!find}
    resolves. *)
