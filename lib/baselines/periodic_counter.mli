(** The periodic counting network ({!Periodic}) as a distributed counter —
    a second counting-network baseline for the registry, hosting
    {!Counting_network}'s protocol core over the periodic balancer
    network. *)

include Counter.Counter_intf.CONCURRENT

val run_batch : t -> origins:int list -> (int * int) list
(** As {!Counting_network.run_batch}. *)

val run_batch_timed :
  t -> ?stagger:float -> origins:int list -> unit -> Counter.History.op list
(** As {!Counting_network.run_batch_timed}. *)
