(** Negative control for the durable WAL-backed counter: identical to
    {!Core.Durable_counter} except that every conditional store write
    becomes a blind put ([~cas:false]). Exists to prove the
    compare-and-swap guard is load-bearing: under the model checker's
    reordering adversary (the store destination is delivery-unordered) a
    retried stale append lands after a newer write and silently erases
    it — the oswald spec monitor flags the rewrite, and the stored
    counterexample in [test/data] replays it deterministically. *)

include Counter.Counter_intf.S
