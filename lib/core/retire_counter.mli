(** The paper's bottleneck-optimal distributed counter (Section 4).

    The counter is a communication tree ({!Tree}) whose root holds the
    counter value and whose leaves are the [n] processors. An [inc]
    initiated at processor [p] travels from leaf [p] up to the root, which
    replies with the current value and increments it. What makes the
    construction bottleneck-optimal is {b retirement}: every inner node
    tracks its {e age} — the number of messages its current processor sent
    or received since taking the job (+2 for receiving-and-forwarding an
    [inc], +2 at the root for receiving an [inc] and sending the value, +1
    for receiving a colleague's retirement announcement) — and when the age
    reaches the retirement threshold (the paper's [2k]), the processor
    {e retires}: it hands the node to the next processor of the node's
    reserved identifier interval ([id_new = id_old + 1], see {!Ids}),
    sending

    - [arity + 1] unit-sized handoff messages to the successor (the ids of
      its children and of its parent; the root sends the counter value in
      place of the parent id, "saving the message that would inform the
      parent"), and
    - a [New_worker] announcement to its parent and each of its children
      (the root only to its children), so they re-address future messages.

    Announcements age their recipients and can cascade further
    retirements; the paper's Retirement Lemma bounds the cascade (no node
    retires twice within one [inc] once the threshold is at least [2k],
    [k >= 4]). The Bottleneck Theorem then gives every processor O(k)
    load over the full each-processor-once sequence, matching the lower
    bound.

    Faithfulness notes (also in DESIGN.md):
    - The paper keeps every message O(log n) bits; we therefore send the
      handoff as [arity + 1] unit messages, matching its counts.
    - The paper resolves in-flight messages that cross a retirement "by a
      proper handshaking protocol with a constant number of extra
      messages"; we implement the equivalent: a processor receiving a
      message for a node it no longer works for forwards it to the node's
      current worker, paying one extra message ({!stale_forwards} counts
      these — they are rare).
    - Replacement intervals have the paper's exact sizes; if a node
      exhausts its interval (the lemmas' constants are conservative) it
      hires an overflow processor with identifier above [n], reported via
      {!Sim.Metrics.overflow_processors}. *)

type config = Retire_plumbing.config = {
  arity : int;  (** Children per inner node; the paper's [k]. *)
  depth : int;  (** Deepest inner level; the paper's [k]. *)
  retire_threshold : int;
      (** Age at which a node retires. The paper's value is [2k]; pass
          [max_int] for the no-retirement ablation (a static tree). *)
}

val paper_config : k:int -> config
(** [{ arity = k; depth = k; retire_threshold = 2k }] (threshold floored
    at [arity + 2] so that tiny trees cannot cascade forever). *)

val config_n : config -> int
(** Number of processors the configuration serves: [arity^(depth+1)]. *)

module Protocol : sig
  include Counter.Counter_intf.CORE

  val create_with :
    ?seed:int -> ?delay:Sim.Delay.t -> ?faults:Sim.Fault.t -> config -> t
end
(** The protocol core, for counters that host it in another configuration
    ({!Baselines.Static_tree}). *)

type t

val create_with :
  ?seed:int -> ?delay:Sim.Delay.t -> ?faults:Sim.Fault.t -> config -> t
(** Build a counter with an explicit configuration (for the threshold and
    arity ablations). *)

(** {1 Inspection} *)

val config : t -> config

val tree : t -> Tree.t

val node_worker : t -> int -> int
(** Current processor of an inner node (flat id). *)

val node_age : t -> int -> int

val retirements_of_node : t -> int -> int
(** How often the node given by flat id has retired so far. *)

val retirements_by_level : t -> int array
(** Total retirements per level, index [0 .. depth]. *)

val max_retirements_at_level : t -> int -> int
(** Largest per-node retirement count on a level — the quantity bounded by
    the Number of Retirements Lemma ([<= capacity - 1] if no overflow hire
    was needed). *)

val total_retirements : t -> int

val stale_forwards : t -> int
(** Messages that arrived at a just-retired processor and were forwarded
    to the successor (the handshake cost the paper treats as O(1)). *)

val max_message_bits : t -> int
(** Largest message payload so far, in bits (two tag bits plus binary
    field sizes) — the paper keeps every message O(log n) bits, which
    experiment E13 verifies against this. *)

val total_bits : t -> int
(** Total payload bits sent. *)

val believed_consistent : t -> bool
(** At quiescence: every node's believed parent/child worker ids match the
    actual current workers, and every leaf's believed parent worker is
    current. The protocol's re-addressing invariant. *)

val run_batch : t -> origins:int list -> (int * int) list
(** Extension beyond the paper's sequential model: launch all origins'
    increments concurrently and run to quiescence; returns
    [(origin, value)] pairs in completion order. Raises
    [Invalid_argument] on an empty batch, an origin out of range or an
    origin listed twice. The root serialises
    arrivals, so values across a batch are distinct and contiguous (but
    an individual origin may observe them out of request order — the
    batch is quiescently consistent, not linearizable). One traced
    operation. Used by experiment E15. *)

val run_batch_timed :
  t -> ?stagger:float -> origins:int list -> unit -> Counter.History.op list
(** Like {!run_batch} but injects operation [i] at virtual time
    [i * stagger] (via a local timer) and reports full
    invocation/completion intervals, for the linearizability analysis of
    experiment E20. [stagger = 0] (default) launches everything at once. *)

(** {1 The counter interface} *)

include Counter.Counter_intf.S with type t := t
(** [create ~n] requires [n = k^(k+1)] for some [k] (use [supported_n] to
    round up); it uses {!paper_config}.

    The open-loop path ([launch_at]/[run_open]) serialises: the paper's
    protocol holds the client until the grant descends, so each arrival
    is served at its arrival instant or as soon as the previous operation
    finishes, whichever is later. Queueing delay appears in completion
    times and the history is trivially linearizable (zero overlap). *)
