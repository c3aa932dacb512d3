(** Structural validation of quorum systems.

    The defining property of a quorum system is pairwise intersection;
    these checks are used by the test suite (deterministically over the
    strategy's full rotation, and property-based over random slot pairs)
    and by the E8 experiment as a preflight. *)

val well_formed : Quorum_intf.system -> n:int -> slots:int -> bool
(** Quorums over the first [slots] slots are non-empty, sorted,
    duplicate-free and within [1 .. n]. *)

val first_violation :
  Quorum_intf.system -> n:int -> slots:int -> (int * int) option
(** The first non-intersecting slot pair, if any. *)
