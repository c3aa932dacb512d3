(* Negative control for the failure-aware retire tree: identical to
   [Core.Retire_ft] except that an emergency retirement skips the
   job-description handoff, so the successor starts from a blank role —
   a deposed root forgets the counter value and re-issues numbers it
   already handed out. The model checker's crash adversary must find the
   resulting duplicate (stored counterexample in test/data). *)

module Ft = Core.Retire_ft.Protocol

include Counter.Host.Make (struct
  include Ft

  let name = "ft-no-handoff"

  let describe =
    "broken: retire-ft whose emergency retirement skips the handoff, so a \
     re-staffed root restarts from zero"

  let create ?seed ?delay ?faults ~n () =
    Ft.create_with ?seed ?delay ?faults ~emergency_handoff:false
      (Core.Retire_plumbing.config_of_n ~who:"Ft_no_handoff" n)
end)
