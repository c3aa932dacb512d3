(** Negative control for the failure-aware retire tree: identical to
    {!Core.Retire_ft} except that an emergency retirement skips the
    job-description handoff, so the successor starts from a blank role —
    a deposed root forgets the counter value and re-issues numbers it
    already handed out. Exists to prove that the model checker's crash
    adversary and the chaos harness actually detect state loss (the
    stored counterexample in [test/data] replays it deterministically). *)

include Counter.Counter_intf.CONCURRENT
