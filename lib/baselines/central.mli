(** The strawman of the paper's introduction: a single processor stores
    the counter value and everyone else asks it.

    "A data structure implementing a distributed counter could be message
    optimal by just storing the counter value with a single processor and
    having all other processors access the counter with only one message
    exchange — such an implementation is clearly unreasonable [...] the
    single processor handling the counter value will be a bottleneck."

    Processor 1 is the holder. An [inc] from [p <> 1] costs one request
    and one reply; an [inc] from the holder itself is purely local (zero
    messages). Over the each-processor-once sequence the holder's load is
    [2(n-1)] = Theta(n), the message count is globally optimal, and the
    bottleneck is maximal — the anchor point of experiment E5. *)

include Counter.Counter_intf.CONCURRENT
(** Open-loop concurrency is natural here: the holder serves requests in
    delivery order, allocating values monotonically in virtual time, so
    the central counter stays linearizable at any load — it just pays
    the full bottleneck for it. *)

val holder : int
(** The processor storing the value ([= 1]). *)

(** {1 Any sequential object}

    The same protocol with the holder keeping any sequential object: a
    request carries the operation, the holder applies it and replies with
    the operation's index and result. The counter above runs it on
    {!Core.Sequential_object.Unit}; [Structures.Central_object] hosts it
    for the other objects. *)

module Make (O : Core.Sequential_object.OBJECT) : sig
  type payload
  type t

  val create :
    ?seed:int ->
    ?delay:Sim.Delay.t ->
    ?faults:Sim.Fault.t ->
    n:int ->
    unit ->
    t

  val net : t -> payload Sim.Network.t

  val value : t -> int
  (** Operations the holder applied so far. *)

  val state : t -> O.state

  val result : t -> O.result option
  (** The result the last served origin received. *)

  val handle :
    t ->
    reply:Counter.Counter_intf.reply ->
    self:int ->
    src:int ->
    payload ->
    unit

  val launch :
    t ->
    reply:Counter.Counter_intf.reply ->
    op:int ->
    origin:int ->
    operation:O.operation ->
    unit
  (** Start operation [op] at [origin]; the holder serves its own
      operations locally, without a message. *)

  val verdict : who:string -> int option -> int
  (** The first reply, or {!Counter.Counter_intf.Stall}. *)

  val copy : t -> payload Sim.Network.t -> t
end
