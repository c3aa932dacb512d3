(** A deliberately broken counter whose bug is {e order-sensitive}.

    A central counter (holder = processor 1) with a gratuitous
    "optimisation": besides the direct reply, the holder pushes the value
    to the origin a second time through a relay (processor 2) — reading
    the counter {e after} the increment, so the relayed copy is stale by
    one. The origin keeps whichever reply arrives first.

    Under the engine's default delivery order the one-hop direct reply
    always beats the two-hop relayed one, so the counter passes every
    schedule-sweep test in the repository — including the exhaustive
    order enumeration of {!Core.Exhaustive}, which varies {e operation}
    order but not {e delivery} order. Only the delivery-interleaving
    model checker ({!Mc.Explore}), which can deliver the relay's copy
    before the direct reply, exposes it: the origin returns [v + 1] and
    the values stop being a permutation. The counterexample replays
    deterministically (test/data/race_reply_n3.mcs).

    Registered in {!Registry.broken}, never in {!Registry.all}. *)

include Counter.Counter_intf.S
