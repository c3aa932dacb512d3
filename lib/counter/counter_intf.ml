(** The distributed-counter abstract data type (Section 2 of the paper).

    A distributed counter encapsulates an integer value [val] and supports
    one operation, [inc]: for any processor, [inc] returns the current
    counter value to the requesting processor and increments the counter by
    one (test-and-increment). Following the paper's model we assume enough
    time elapses between two [inc] requests that the preceding operation's
    process has finished before the next one starts; implementations run
    each operation's message exchange to quiescence before returning.

    Implementations own a {!Sim.Network} instance, so per-processor message
    loads and per-operation traces come for free and are comparable across
    counters.

    The paper assumes no failures; counters honour that by default. When a
    {!Sim.Fault} plan is supplied at creation, an operation may instead
    {e stall}: the process reaches quiescence without delivering a value
    (a crashed worker, a lost message). Stalls are a typed outcome
    ({!Stalled}), never a hang and never an untyped exception. *)

exception Stall of string
(** Raised by [inc] when the operation's process reached quiescence
    without returning a value — only possible under an active fault plan.
    The string says what was detected ("holder crashed", "no value
    returned", ...). The counter stays quiescent and usable: later
    operations from surviving processors may still complete. *)

(* The text after the first [sub] in [s]. *)
let after ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i =
    if i + lsub > ls then None
    else if String.sub s i lsub = sub then
      Some (String.sub s (i + lsub) (ls - i - lsub))
    else go (i + 1)
  in
  go 0

let contains ~sub s = Option.is_some (after ~sub s)
(** Whether [sub] occurs in [s]: how checkers read stall reasons
    (["origin"], ["gave up"], ["agreement"]). *)

let spec_violation = after ~sub:"spec: "
(** The property a stall reason reports violated: the text after its
    ["spec: "] tag, wherever a counter's prefix put the tag (the WAL
    monitor's ["Durable_counter.inc: spec: manifest-monotonicity: ..."],
    the phase king's ["spec: agreement violated: ..."]). [None] for an
    ordinary stall. *)

type outcome = Completed of int | Stalled of string
(** Result of one increment under faults: the value returned, or the
    stall reason. *)

let result_of_inc f =
  match f () with v -> Completed v | exception Stall reason -> Stalled reason

let outcome_value = function Completed v -> Some v | Stalled _ -> None

let pp_outcome ppf = function
  | Completed v -> Format.fprintf ppf "%d" v
  | Stalled reason -> Format.fprintf ppf "stalled(%s)" reason

module type S = sig
  type t

  val name : string
  (** Short stable identifier ("central", "retire-tree", ...). *)

  val describe : string
  (** One-line human description, shown by the CLI and benches. *)

  val supported_n : int -> int
  (** [supported_n n] rounds a requested network size up to the nearest
      size the construction supports (e.g. [k^(k+1)] for the paper's tree,
      a power of two for counting networks, a square for grids). The result
      is always [>= max 1 n]. *)

  val create :
    ?seed:int -> ?delay:Sim.Delay.t -> ?faults:Sim.Fault.t -> n:int -> unit -> t
  (** Build the counter for exactly [n] processors; callers should pass a
      value accepted by {!supported_n} (implementations raise
      [Invalid_argument] otherwise). [seed] makes runs reproducible.
      [faults] (default {!Sim.Fault.none}) is the deterministic fault
      plan handed to the underlying {!Sim.Network}; with [Fault.none]
      behaviour is bit-identical to a counter built without the
      parameter. *)

  val n : t -> int
  (** Number of processors. *)

  val inc : t -> origin:int -> int
  (** [inc t ~origin] performs one test-and-increment initiated by
      processor [origin] (in [1 .. n t]), runs the resulting process to
      quiescence, and returns the value the counter had. Raises {!Stall}
      if the process quiesced without producing a value (possible only
      under an active fault plan); the counter remains usable. *)

  val inc_result : t -> origin:int -> outcome
  (** {!inc} with the stall folded into a typed result — what fault
      experiments consume. *)

  val crashed : t -> int -> bool
  (** Whether processor [p] has crash-stopped in the underlying network
      (always [false] without a fault plan). Schedulers use this to route
      operations around dead origins. *)

  val value : t -> int
  (** Current counter value = number of completed [inc]s. *)

  val metrics : t -> Sim.Metrics.t
  (** Cumulative per-processor message loads. *)

  val traces : t -> Sim.Trace.t list
  (** Traces of all completed operations, chronological. *)

  val clone : t -> t
  (** Deep copy of the quiescent counter state (same future behaviour).
      Used by the lower-bound adversary to evaluate hypothetical
      operations without committing them. *)

  (** {2 Open loop}

      The paper's "enough time elapses between operations" assumption is
      what {!inc}'s run-to-quiescence encodes. The open loop drops it:
      operations are {e injected} at arrival times drawn from an
      open-loop process ({!Sim.Arrivals}) without waiting for earlier
      operations, and completions are matched back by an explicit
      operation id — an origin may have many operations in flight at
      once, so origin alone cannot pair requests with replies.

      Protocol contract: {!launch_at} is called once per operation, in
      non-decreasing [at] order with distinct [op] ids [>= 0], all before
      {!run_open}. A genuinely concurrent protocol schedules each
      injection as a local timer on its own network and lets one
      {!Sim.Network.run_to_quiescence} drain everything; no per-operation
      traces are recorded for overlapping operations (trace bracketing
      assumes one operation at a time), but metrics still accumulate. A
      serialising protocol (the paper's retire tree,
      {!CORE.serialising}) instead serves each arrival to completion
      inside [launch_at], as one traced closed-loop operation that starts
      at its arrival time or as soon as the previous operation finished,
      whichever is later — so an operation may start after its arrival,
      and queueing delay shows up in its completion time, which is
      exactly the honest cost of serialisation. *)

  val launch_at : t -> op:int -> origin:int -> at:float -> unit
  (** Inject operation [op] from [origin] at virtual time [at]
      (monotone across calls; [at >=] the network's current time). *)

  val run_open : t -> unit
  (** Drain the network: every launched operation either completes or —
      under an active fault plan — is abandoned. *)

  val completions : t -> (int * int * float) list
  (** [(op, value, completed_at)] for every completed open-loop
      operation, in completion order. Operations launched but absent
      here were lost to faults. *)
end

type counter = (module S)

(* Kept for benchmark/, which names the open-loop view by these; the
   benchmark step of ROADMAP item 1 deletes them. *)
module type CONCURRENT = S

type concurrent = counter

(** {1 Protocol cores}

    A counter is written as a protocol {e core}: its message payload, its
    state, the handler the network calls on each delivery, how an
    operation starts at its origin, and how a closed-loop operation ends.
    The scheduler stays outside the core (Aspnes' state-machine view of a
    message-passing protocol); {!Host.Make} derives the whole {!S}
    counter from it.

    The host starts an operation with [start ~reply ~op ~origin] and the
    core reports each value it hands out with [reply ~op v]. [op] is [-1]
    for a closed-loop operation, the origin itself for a batch member
    (the origins of a batch are distinct), and the caller's id ([>= 0])
    in open loop. During a closed-loop operation every reply counts for
    that operation. *)

type reply = op:int -> int -> unit
(** How a core reports that operation [op] returned a value. A value
    delivered twice (a duplication fault) may be reported twice. *)

module type CORE = sig
  type payload
  type t

  val name : string
  val describe : string
  val supported_n : int -> int

  val who : string
  (** Module name used in error messages and stall reasons
      (["Retire_counter"], ...). *)

  val serialising : bool
  (** [false]: open-loop operations start at their arrival times and
      overlap. [true]: they run one after another, each as a closed-loop
      operation that starts at its arrival or as soon as the previous one
      finished, whichever is later. *)

  val create :
    ?seed:int -> ?delay:Sim.Delay.t -> ?faults:Sim.Fault.t -> n:int -> unit -> t
  (** The core over its own fresh network of [n] processors. *)

  val net : t -> payload Sim.Network.t
  val value : t -> int

  val handle : t -> reply:reply -> self:int -> src:int -> payload -> unit
  (** Processor [self] receives a payload from [src]. *)

  val start : t -> reply:reply -> op:int -> origin:int -> unit
  (** Begin operation [op] at [origin] (already range-checked). *)

  val verdict : t -> origin:int -> int option -> int
  (** A closed-loop operation from [origin] reached quiescence; the
      argument is the first value replied during it. Return the
      operation's value or raise {!Stall} with the reason. *)

  val copy : t -> payload Sim.Network.t -> t
  (** Deep copy of the quiescent state over the given network clone. *)
end
