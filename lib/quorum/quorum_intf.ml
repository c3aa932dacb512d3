(** Quorum systems (related work, Section 1).

    A quorum system over a universe of elements is a collection of sets
    (quorums) every two of which intersect. The paper's Hot Spot Lemma is
    "closely related" to the intersection arguments of quorum theory
    (Garcia-Molina & Barbara 1985; Maekawa 1985), and its counting scheme
    "might be called a Dynamic Quorum System"; we implement the classical
    constructions to measure their load and probe complexity next to the
    paper's counter (experiments E5 and E8).

    A system also fixes an {e access strategy}: [quorum ~slot] returns the
    quorum to use for the [slot]-th access. Strategies rotate through the
    collection so that load spreads as evenly as the construction allows;
    the {!Load} module measures the result. *)

module type S = sig
  type t

  val name : string

  val describe : string

  val supported_n : int -> int
  (** Round a requested universe size up to the nearest supported one
      (e.g. a square for grids). *)

  val create : n:int -> t
  (** Requires [n = supported_n n]. *)

  val n : t -> int
  (** Universe size; elements are [1 .. n]. *)

  val quorum : t -> slot:int -> int list
  (** The quorum used for access number [slot] ([slot >= 0]); sorted,
      duplicate-free, non-empty, all within [1 .. n]. *)

  val distinct_quorums : t -> int
  (** Size of the quorum collection the strategy rotates through. For
      majority, grid, tree and projective-plane systems [quorum ~slot]
      cycles with this period. The crumbling wall's does not: its
      representatives rotate with [slot / rows], so slot
      [distinct_quorums] can differ from slot 0 (n = 9: slot 12), and
      only the exact slot names a wall's quorum. *)

  val quorum_size : t -> int
  (** Size of the quorums this system produces (all our constructions are
      uniform; for crumbling walls this is the maximum). *)
end

type system = (module S)
