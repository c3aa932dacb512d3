(** Sequential objects — the paper's generalisation target.

    Section 2: "the argument in the Hot Spot Lemma can be made for the
    family of all distributed data structures in which an operation
    depends on the operation that immediately precedes it. Examples for
    such data structures are a bit that can be accessed and flipped, and
    a priority queue."

    An [OBJECT] is a deterministic sequential specification: a state, an
    operation type, and a transition function returning the new state and
    the value handed back to the caller. The retirement engine
    ({!Retire_plumbing.Make}) is parametrised by the object its root
    holds: the counters run it on an object that holds nothing (the
    value is the root's operation index), and
    [Structures.Retire_spine.Make] runs it on any object, next to the
    Theta(n)-bottleneck strawman [Structures.Central_object.Make]; the
    lower bound applies to both (and to anything else), which experiment
    E12 demonstrates. *)

module type OBJECT = sig
  type state

  type operation

  type result

  val name : string
  (** Short identifier ("counter", "flip-bit", ...). *)

  val initial : state

  val apply : state -> operation -> state * result
  (** The sequential specification. Must be pure. *)

  val operation_to_string : operation -> string
  (** For traces and debugging output. *)

  val result_to_string : result -> string
end

(** The object that holds nothing: an operation's only outcome is its
    index in the holder's order, so an engine that runs it is a counter.
    The retirement tree and the central server count with it. *)
module Unit = struct
  type state = unit
  type operation = unit
  type result = unit

  let name = "counter"
  let initial = ()
  let apply () () = ((), ())
  let operation_to_string () = "inc"
  let result_to_string () = "()"
end
