(** One host for every counter: {!Make} turns a protocol core
    ({!Counter_intf.CORE}) into the full {!Counter_intf.S}
    counter. Origin checks, the per-operation trace bracket, closed-loop
    [inc], open-loop [launch_at]/[run_open]/[completions], batches,
    [clone] and handler installation are written once, here. *)

module Make (C : Counter_intf.CORE) : sig
  include Counter_intf.S

  val host : C.t -> t
  (** Host a core built by one of its own constructors (a non-default
      configuration) and install its handler. *)

  val core : t -> C.t

  val run_batch : t -> origins:int list -> (int * int) list
  (** Start one operation per origin at once and run to quiescence, as one
      traced operation; returns [(origin, value)] in completion order.
      Raises [Invalid_argument] on an empty batch, an origin out of range
      or an origin listed twice. *)

  val run_batch_timed :
    t -> ?stagger:float -> origins:int list -> unit -> History.op list
  (** {!run_batch} with operation [i] injected at [i * stagger] after the
      current time (by a local timer unless [stagger = 0], the default),
      reporting each operation's invocation and completion times. *)
end
