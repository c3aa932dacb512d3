(** The paper's communication tree {e without} retirement — the ablation
    that isolates the retirement idea.

    Identical topology and routing to {!Core.Retire_counter} (arity [k],
    depth [k], an [inc] climbs from leaf to root and the root replies),
    but inner nodes keep their initial processors forever. The root
    processor then handles 3 messages per operation, for a Theta(n)
    bottleneck — asymptotically as bad as the {!Central} counter, despite
    the tree: distribution of the {e structure} is worthless without
    distribution of the {e work}, which is the paper's core observation.

    Implemented as a [Retire_counter] with an infinite retirement
    threshold, so any behavioural difference between the two counters is
    attributable to retirement alone. *)

include Counter.Counter_intf.CONCURRENT

val run_batch : t -> origins:int list -> (int * int) list
(** As {!Core.Retire_counter.run_batch}. *)

val run_batch_timed :
  t -> ?stagger:float -> origins:int list -> unit -> Counter.History.op list
(** As {!Core.Retire_counter.run_batch_timed}. *)
