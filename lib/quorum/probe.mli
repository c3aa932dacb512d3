(** Probe complexity of quorum systems (Peleg & Wool, PODC 1996 — "How to
    be an efficient snoop", cited by the paper).

    To use a quorum system under crash failures a client must first find a
    fully-live quorum by probing elements one at a time (each probe
    reveals whether the element is alive). The probe complexity is the
    number of probes the client needs. We implement the natural adaptive
    strategy: walk the strategy's quorums in rotation order, probe their
    members, remember every answer, and skip quorums already known to
    contain a dead element; report the total number of (distinct) probes
    until some quorum is certified live, or failure when the crash set
    hits every quorum examined.

    This is the one part of the repository where failures exist: the
    paper's counting model is failure-free, but its related-work
    comparison (and our E8 experiment) needs quorum behaviour under
    crashes. *)

type outcome = {
  found : int list option;  (** The certified-live quorum, if any. *)
  probes : int;  (** Distinct elements probed. *)
  quorums_examined : int;
}

val search : Quorum_intf.system -> n:int -> failed:(int -> bool) -> outcome
(** Adaptive search as described above, over the system's
    [distinct_quorums]. *)

val random_failures : Sim.Rng.t -> n:int -> fraction:float -> bool array
(** Crash each element independently with probability [fraction];
    index 0 unused. *)

val expected_probes :
  Quorum_intf.system ->
  n:int ->
  fraction:float ->
  trials:int ->
  seed:int ->
  float * float
(** Monte-Carlo mean probes and success rate over [trials] random crash
    sets. *)
