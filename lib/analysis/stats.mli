(** Descriptive statistics over integer samples (message loads, list
    lengths, retirement counts). *)

type summary = {
  count : int;
  min : int;
  max : int;
  mean : float;
  stddev : float;  (** Population standard deviation. *)
  median : float;
  p90 : float;
  p99 : float;
  total : int;
}

val summarize : int array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val percentile : int array -> float -> float
(** [percentile samples p] with [p] in [\[0, 100\]]; linear interpolation
    on the sorted samples. *)

val gini : int array -> float
(** Gini coefficient of the sample (0 = perfectly even, -> 1 = all mass on
    one element): our imbalance measure for load distributions
    (experiment E6). Zero-sum samples yield 0. *)

val pp_summary : Format.formatter -> summary -> unit
