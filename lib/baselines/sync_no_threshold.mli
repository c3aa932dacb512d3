(** Negative control for the phase-king counter: {!Core.Sync_counter}
    with the round-3 threshold guard disabled, so every replica adopts
    the king's tiebreaker unconditionally. An equivocating Byzantine
    king in the last phase deterministically splits the correct
    replicas; exists to prove that the agreement oracle, the chaos
    harness and the model checker's corruption adversary actually catch
    Byzantine disagreement (the stored counterexample in [test/data]
    replays it byte-identically). *)

include Counter.Counter_intf.CONCURRENT
