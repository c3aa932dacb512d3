(** Load analysis of quorum systems (Naor & Wool's notion, measured
    empirically for our access strategies).

    The load of an access strategy is how often the busiest element is
    touched, as a fraction of accesses. Over one full rotation of the
    strategy we count, for every element, the number of quorums containing
    it; the maximum divided by the number of accesses is the empirical
    load. Lower is better: majority has load about 1/2; a grid about
    [2/sqrt n]; tree quorums put the root in every quorum (load 1) — the
    quorum-world hot spot. *)

type profile = {
  system_name : string;
  n : int;
  accesses : int;
  quorum_size_max : int;
  quorum_size_mean : float;
  busiest_element : int;
  busiest_count : int;
  load : float;  (** [busiest_count / accesses]. *)
  mean_count : float;  (** Average element participation count. *)
}

val measure : Quorum_intf.system -> n:int -> ?accesses:int -> unit -> profile
(** Measure over [accesses] slots (default: [distinct_quorums], one full
    rotation for every system but the crumbling wall). *)

val counts : Quorum_intf.system -> n:int -> accesses:int -> int array
(** Per-element participation counts (index 0 unused). *)

val pp_profile : Format.formatter -> profile -> unit
