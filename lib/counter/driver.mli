(** Generic experiment driver: runs a schedule against any counter and
    gathers correctness verdicts and load statistics.

    The driver is the single place that defines what "a run" means, so every
    experiment, test and benchmark measures the same thing:

    - operations execute strictly sequentially (the paper's model);
    - correctness = the multiset of returned values is exactly
      [{0, 1, ..., ops-1}] and, because operations are sequential, the
      values arrive in increasing order;
    - the Hot Spot Lemma is checked over all consecutive operation pairs;
    - loads come from the counter's {!Sim.Metrics}. *)

type report = {
  counter_name : string;
  n : int;
  ops : int;
  schedule : string;
  values : int array;
      (** Value returned by each {e completed} operation, in order
          (equals one entry per scheduled operation on fault-free runs). *)
  completed : int;  (** Operations that returned a value. *)
  stalled : int;
      (** Operations that stalled (possible only under a fault plan). *)
  stall_reasons : string list;  (** One reason per stalled operation. *)
  values_exact : bool;
      (** No stalls and the multiset of values is exactly [{0 .. ops-1}]
          — the counter handed out every value once. *)
  sequentially_ordered : bool;
      (** Values arrived in increasing order — what sequential
          (run-to-quiescence) execution of a correct counter must add on
          top of [values_exact]. The old [correct] verdict is the
          conjunction of the two. *)
  hotspot_ok : bool;  (** Hot Spot Lemma holds on all consecutive pairs. *)
  hotspot_violations : int;
  total_messages : int;
  bottleneck_proc : int;
  bottleneck_load : int;
  average_load : float;
  max_op_messages : int;  (** Largest single-operation message count. *)
  overflow_processors : int;  (** Replacement hires beyond processor [n]. *)
  emergency_retirements : int;
      (** Crashed roles re-staffed by a failure-aware counter's audit
          (zero for fault-free runs and unaware protocols). *)
  recoveries : int;  (** [recover:P\@T] clauses that fired during the run. *)
  mean_op_latency : float;
      (** Mean virtual time from an operation's start to its last
          delivery — the asynchronous-model time cost under the chosen
          delay model (unit delay by default, so roughly the longest
          message chain). *)
  max_op_latency : float;
}

val run :
  ?seed:int ->
  ?delay:Sim.Delay.t ->
  ?faults:Sim.Fault.t ->
  Counter_intf.counter ->
  n:int ->
  schedule:Schedule.t ->
  report
(** [run (module C) ~n ~schedule] creates a fresh counter for
    [C.supported_n n] processors and executes the schedule. [seed]
    (default 42) seeds both the counter and the schedule's own draws.
    [faults] (default {!Sim.Fault.none}) is handed to the counter;
    stalled operations are tallied in the report instead of raising. *)

val run_each_once : ?seed:int -> ?delay:Sim.Delay.t -> Counter_intf.counter -> n:int -> report
(** The lower-bound setting: each processor increments exactly once. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Reusable value predicates}

    The checks the report's [correct] verdict is built from, exposed so
    other verification surfaces (the exhaustive order sweep, the
    delivery-interleaving model checker) apply {e the same} definitions
    rather than re-deriving them. *)

val values_sequential : int array -> bool
(** Values are exactly [0, 1, ..., ops-1] {e in order} — what sequential
    (run-to-quiescence) execution of a correct counter must produce. *)

val values_permutation : int array -> bool
(** The multiset of values is exactly [{0 .. ops-1}] — correctness
    irrespective of completion order. *)

val values_distinct : int array -> bool
(** No value was returned twice — the weakest guarantee, the one that
    must survive even crash faults (a lost answer may leave a gap, a
    duplicated answer is always a bug). *)

val load_profile :
  ?seed:int -> Counter_intf.counter -> n:int -> schedule:Schedule.t -> int array
(** Like {!run} but returns the dense per-processor load array
    (index 0 unused) for distribution experiments. *)

(** {1 Open-loop load runs}

    The closed-loop {!run} waits for each operation to finish before
    dispatching the next; {!run_load} does the opposite — operations are
    injected at times drawn from a {!Sim.Arrivals} process whether or not
    earlier ones have completed, so the counter genuinely handles
    overlapping operations and the report carries the concurrent-history
    verdicts of {!History.analyze} (docs/LOAD.md). *)

type load_report = {
  counter_name : string;
  n : int;
  arrivals : string;  (** {!Sim.Arrivals.to_string} of the process. *)
  requested : int;  (** Operations injected. *)
  completed : int;  (** Operations whose value reached their origin. *)
  lost : int;
      (** [requested - completed] (non-zero only under a fault plan). *)
  makespan : float;
      (** Virtual time from first invocation to last completion. *)
  throughput : float;  (** [completed / makespan] (ops per time unit). *)
  latency : Analysis.Histogram.latency_summary;
      (** p50/p90/p99/max of per-operation invocation-to-completion time
          (all zero when nothing completed). *)
  analysis : History.analysis;
      (** Linearizability and quiescent-consistency verdicts plus
          peak/mean overlap — what [dcount load --check] gates on. *)
  history : History.op list;
      (** The full concurrent history, for downstream analysis. *)
  total_messages : int;
  bottleneck_proc : int;
  bottleneck_load : int;
  average_load : float;
}

val run_load :
  ?seed:int ->
  ?delay:Sim.Delay.t ->
  ?faults:Sim.Fault.t ->
  Counter_intf.concurrent ->
  n:int ->
  arrivals:Sim.Arrivals.t ->
  ops:int ->
  load_report
(** [run_load (module C) ~n ~arrivals ~ops] creates a fresh counter for
    [C.supported_n n] processors, injects [ops] operations at the times
    of {!Sim.Arrivals.merge} (computed up front from [seed + 1]),
    runs to quiescence and joins completions back to invocation times by
    operation id. Operations that never complete (crashes, lost
    messages) are counted in [lost], not silently dropped. *)

val pp_load_report : Format.formatter -> load_report -> unit
(** Includes the violation witness when the history is not
    linearizable. *)
