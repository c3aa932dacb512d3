(** What a counter promises under a fault plan, stated once: the rules
    [dcount chaos --check] holds each sweep row to, as a pure function of
    the row. {!Baselines.Registry.promise} names each counter's. Every
    promise includes {!Completes}: a row under {!Sim.Fault.none}
    completes every operation asked. *)

type t =
  | Completes  (** Nothing beyond the fault-free row. *)
  | Quorum_live
      (** The quorum counters: at drop 0 and duplication 0 with at most
          [(n - 1) / 2] crashes, no operation whose origin stayed alive
          stalls — not even one whose reason names the origin. *)
  | Live_origins
      (** retire-ft: at drop 0 and duplication 0 (crashes stay below its
          overflow pool on every sweep row), an operation whose origin
          stayed alive stalls only with a reason that names the origin. *)
  | Durable
      (** The WAL-backed counter loses no acked increment: no value is
          acked twice, every acked value is below the final (durable)
          value, there are no more acks than that value, and no operation
          stalls with a ["spec: "] reason (the WAL monitor's). *)
  | Agreement
      (** sync-count: under a plan whose only faults are Byzantine turns,
          at most [f = (n - 1) / 3] of them, every operation completes
          (so none stalls on an agreement violation). *)
  | Splits
      (** The sync-no-threshold control: with at least one processor
          turned, some operation stalls on an agreement violation. *)

type row = {
  plan : Sim.Fault.t;
  n : int;  (** processors *)
  ops : int;  (** operations asked, attempted or not *)
  outcomes : (Counter_intf.outcome * bool) list;
      (** each attempted operation's outcome, in order, with whether its
          origin was alive when the operation ended *)
  value : int;  (** the counter's final value *)
}

val check : t -> row -> string list
(** The row's violations of the promise, the fault-free rule's first;
    [[]] when it holds. *)

val agreement_stall : string -> bool
(** Whether a stall reason reports an agreement violation. *)
