(** The strawman server for any sequential object: processor 1 holds the
    state, everyone else sends the operation and receives the result.
    Message-optimal (2 per remote operation, 0 for the holder), bottleneck
    Theta(n) — the baseline experiment E12 compares the generic
    {!Retire_spine} against. This is [Baselines.Central]'s engine
    ([Baselines.Central.Make]) with the object at the holder, run by the
    counters' host ({!Counter.Host}); over {!Counter_obj} it equals
    [Baselines.Central] (the test suite compares the loads and every
    operation's deliveries). *)

module Make (O : Core.Sequential_object.OBJECT) : sig
  type t

  val create : ?seed:int -> ?delay:Sim.Delay.t -> n:int -> unit -> t

  val supported_n : int -> int

  val n : t -> int

  val execute : t -> origin:int -> O.operation -> O.result

  val state : t -> O.state

  val operations : t -> int

  val metrics : t -> Sim.Metrics.t

  val traces : t -> Sim.Trace.t list

  val clone : t -> t
end
