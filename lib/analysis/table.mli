(** Aligned ASCII tables — the output format of every experiment, so
    bench output reads like the tables a paper would print. *)

type t

val create : columns:string list -> t
(** Column headers; every row must match their arity. *)

val add_row : t -> string list -> unit

val cell_float : ?decimals:int -> float -> string

val cell_bool : bool -> string

val pp : Format.formatter -> t -> unit
(** Prints header, separator, rows; columns right-aligned except the
    first. *)

val to_csv : t -> string
(** The same table as CSV (for EXPERIMENTS.md extraction / plotting). *)
