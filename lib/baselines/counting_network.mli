(** The bitonic counting network as a message-passing distributed counter.

    Balancers are distributed across the processors (round-robin by
    balancer id), as are the output-wire counters. A token is a message
    that hops from balancer host to balancer host; on exiting wire [i] it
    receives the value [i + width * c_i] from the wire's local counter
    (the standard fetch-and-increment layering over a counting network)
    and the value is sent back to the origin.

    Cost per operation: [depth + 2] messages (entry hop, one per
    balancer layer traversed, value reply), i.e. O(log^2 width). The load
    concentrates on the balancer hosts — with [width] fixed the busiest
    host carries Theta(n / width) over the each-processor-once sequence,
    so the counting network interpolates between the central counter
    ([width = 1]-ish) and lower-bottleneck structures, but for any fixed
    width it still scales linearly in [n]: a nice foil for the paper's
    O(k). The step property can be checked on the message-passing
    execution at any quiescent point ({!step_property_held}).

    Sequential operations are linearizable, so the generic driver checks
    apply; concurrency-specific behaviour of counting networks (they are
    not linearizable under overlap) is exercised by experiment E7. *)

module Protocol : sig
  include Counter.Counter_intf.CORE

  val create_custom :
    ?seed:int ->
    ?delay:Sim.Delay.t ->
    ?faults:Sim.Fault.t ->
    n:int ->
    network:Bitonic.network ->
    unit ->
    t

  val default_width : int -> int
  (** The largest power of two [<= sqrt n] (at least 2 for [n > 1]). *)
end
(** The protocol core, for counters that host it over another balancer
    network ({!Periodic_counter}). *)

type t

val create_width :
  ?seed:int ->
  ?delay:Sim.Delay.t ->
  ?faults:Sim.Fault.t ->
  n:int ->
  width:int ->
  unit ->
  t
(** [width] must be a power of two. *)

val create_custom :
  ?seed:int ->
  ?delay:Sim.Delay.t ->
  ?faults:Sim.Fault.t ->
  n:int ->
  network:Bitonic.network ->
  unit ->
  t
(** Run the counter over any prebuilt balancer network (e.g.
    {!Periodic.build}) — the wrapper is construction-agnostic. *)

val width : t -> int

val network_depth : t -> int

val balancer_count : t -> int

val output_counts : t -> int array
(** Tokens that have exited on each wire. *)

val step_property_held : t -> bool
(** Whether the output counts have the step property; meaningful at
    quiescence, when no token is in flight. *)

val run_batch : t -> origins:int list -> (int * int) list
(** Launch all origins' tokens concurrently — the regime counting
    networks were designed for (lock-free, no serialisation point).
    Returns [(origin, value)] pairs in completion order: a distinct,
    contiguous value block (quiescent consistency; counting networks are
    famously not linearizable under overlap, which E7 shows by exhibiting
    out-of-order values within a batch). Counts as one traced
    operation. Raises [Invalid_argument] on an empty batch, an origin out
    of range or an origin listed twice. *)

val run_batch_timed :
  t -> ?stagger:float -> origins:int list -> unit -> Counter.History.op list
(** {!run_batch} with operation [i] injected at virtual time
    [i * stagger] and full invocation/completion intervals (the batch rule
    of {!Counter.Host.Make.run_batch}) — the E20
    linearizability experiment, where moderate stagger makes the
    network's famous non-linearizability observable. *)

include Counter.Counter_intf.CONCURRENT with type t := t
(** [create ~n] picks [width] = the largest power of two [<= sqrt n]
    (at least 2 for [n > 1]): wide enough to spread load, small enough
    that balancers stay busy.

    The open-loop path ([launch_at]/[run_open]) is where the network's
    celebrated weakness shows: per-wire counters advance unevenly while
    tokens are in flight, so under sustained load the history is
    quiescently consistent but {e not} linearizable — [dcount load
    --check] exhibits the violation live. *)
