(** Deterministic open-loop arrival processes.

    An open-loop workload injects operations at times drawn from an
    arrival process, {e regardless} of whether earlier operations have
    completed — the opposite of the driver's closed-loop
    run-to-quiescence dispatch, and the regime where counters genuinely
    overlap (docs/LOAD.md).

    Every source (one per origin processor) draws from its own
    {!Rng.keyed} stream, a pure function of [(seed, origin)]: the merged
    arrival sequence is computed before the network exists and is
    therefore independent of the engine configuration. Rates are {e per source}: [n]
    sources at rate [r] inject [n * r] operations per unit of virtual
    time in aggregate. *)

type t =
  | Fixed of float  (** One arrival every [1/rate], no randomness. *)
  | Poisson of float
      (** Memoryless arrivals: exponential inter-arrival times with mean
          [1/rate]. *)
  | Bursty of { rate : float; on_len : float; off_len : float }
      (** A two-state MMPP: Poisson at [rate] during ON windows of length
          [on_len], silent during OFF windows of length [off_len]. Every
          arrival time [t] satisfies [fmod t (on_len + off_len) <= on_len]
          (the on/off envelope). *)

val rate : t -> float
(** The per-source rate parameter. *)

val of_string : string -> t
(** Grammar: [fixed:R] | [poisson:R] | [bursty:R:ON:OFF]. Raises
    [Invalid_argument] on anything else or on non-positive parameters. *)

val to_string : t -> string
(** Inverse of {!of_string}. *)

val pp : Format.formatter -> t -> unit

val stream : t -> seed:int -> origin:int -> count:int -> float array
(** First [count] arrival times of one source, strictly from the keyed
    stream [(seed, origin)] — equal triples give equal streams. Times are
    non-decreasing and start after virtual time 0. *)

val merge : t -> seed:int -> n:int -> ops:int -> (float * int) array
(** First [ops] arrivals across sources [1 .. n], merged by earliest
    time (ties broken by origin id): [(time, origin)] pairs,
    non-decreasing in time. Element [i] is operation [i] of an open-loop
    run. *)
