(** A deliberately broken counter: each processor counts locally and
    exchanges no messages.

    It violates the Hot Spot Lemma's premise (consecutive operations by
    different processors share no informed processor) and returns wrong
    values on any multi-processor schedule — proof that the correctness
    checkers detect real breakage, not just that correct counters pass
    them. The model checker needs no adversarial scheduling at all to
    catch it: with zero messages in flight there are zero decision
    points, and the single (empty-decision) execution already fails the
    permutation check. Registered in {!Registry.broken}, never in
    {!Registry.all}. *)

include Counter.Counter_intf.S
