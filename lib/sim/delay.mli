(** Message-delivery latency models.

    The paper's model only requires that a message arrives "an unbounded but
    finite amount of time after it has been sent"; none of its results depend
    on actual latencies (they are statements about message counts). The
    delay model therefore only influences interleavings. [Constant] gives
    breadth-first, synchronous-looking executions; [Uniform] and
    [Exponential] give realistic asynchrony; [Adversarial_jitter] maximises
    reordering by sampling from a wide heavy-jitter range, which is how we
    exercise the "arbitrary finite delay" clause of the model. *)

type t =
  | Constant of float  (** Every message takes exactly this long. *)
  | Uniform of float * float  (** Uniform in [\[lo, hi)]. *)
  | Exponential of float  (** Exponential with the given mean. *)
  | Adversarial_jitter of float
      (** Mostly fast, occasionally [100 x] slower: uniform in [\[base, 2 base)]
          with probability 0.9, uniform in [\[base, 100 base)] otherwise. *)

val default : t
(** [Constant 1.0] — the unit-delay convention used for time complexity in
    the asynchronous model (and the paper's introduction). *)

val sample : t -> Rng.t -> float
(** Draw one delivery latency. Always strictly positive. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Parses ["constant:1.0"], ["uniform:0.5,2.0"], ["exp:1.0"],
    ["jitter:1.0"]; used by the CLI. The [constant], [exp] and [jitter]
    parameters must be finite and [> 0]; [uniform:LO,HI] needs finite
    [0 <= LO <= HI] with [HI > 0]. *)

val to_string : t -> string
