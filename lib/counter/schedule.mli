(** Operation schedules: which processor initiates which [inc].

    The paper's lower bound is derived for the strictest case, "each
    processor initiates exactly one inc operation" ({!Each_once}); the
    other schedules exercise the counters under more and less favourable
    request patterns. *)

type t =
  | Each_once
      (** Processors [1 .. n] in identifier order, one operation each —
          the lower-bound setting. *)
  | Each_once_shuffled
      (** Each processor exactly once, in a seed-determined random order. *)
  | Round_robin of int
      (** [Round_robin ops]: origins [1, 2, ..., n, 1, 2, ...] for a total
          of [ops] operations. *)
  | Random of int
      (** [Random ops]: each origin drawn uniformly. *)
  | Single_origin of int * int
      (** [Single_origin (p, ops)]: processor [p] initiates all [ops]
          operations — the degenerate case the paper excludes from the
          lower bound ("the amount of achievable distribution is limited if
          many operations are initiated by a single processor"). *)
  | Explicit of int list  (** Fully specified origin sequence. *)

val check_origins : t -> n:int -> (unit, string) result
(** [Error] naming the first origin that [Single_origin] or [Explicit]
    puts outside [1 .. n]; the other schedules are always in range. *)

val origins : t -> Sim.Rng.t -> n:int -> int list
(** Materialise the origin sequence for an [n]-processor network. Raises
    [Invalid_argument] if {!check_origins} fails. *)

val ops : t -> n:int -> int
(** Number of operations the schedule will perform. *)

val to_string : t -> string
(** Canonical compact form: [each-once], [shuffled], [round-robin:OPS],
    [random:OPS], [single:P:OPS] or [explicit:P,P,...] — the grammar the
    CLI accepts and the model checker's counterexample files embed.
    [of_string (to_string t) = Ok t]. *)

val of_string : string -> (t, string) result
(** Rejects negative op counts and origins below 1. Origins above [n]
    parse; {!check_origins} rejects them once [n] is known. *)

val name : t -> string

val pp : Format.formatter -> t -> unit
