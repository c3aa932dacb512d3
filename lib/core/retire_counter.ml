(* The paper's exact protocol, as a thin veneer over the shared engine in
   Retire_plumbing (Retire_ft layers the failure-aware client over the
   same engine). With no fault plan the plumbing's failure-aware fields
   are inert and this module is observably identical — send for send —
   to the pre-refactor implementation; the determinism goldens pin it. *)

module P = Retire_plumbing

type config = P.config = { arity : int; depth : int; retire_threshold : int }

let paper_config = P.paper_config
let config_n = P.config_n

module Protocol = struct
  type payload = P.payload
  type t = P.t

  let name = "retire-tree"

  let describe =
    "the paper's communication tree with processor retirement (Section 4); \
     O(k) bottleneck where k*k^k = n"

  let supported_n n = Params.round_up_n (max 1 n)
  let who = "Retire_counter"

  (* The paper's protocol holds the client until its grant descends, so
     open-loop arrivals are served strictly in order: each op starts at
     its arrival instant or as soon as the previous op finishes,
     whichever is later. Queueing delay therefore shows up honestly in
     completion times, and the history is trivially linearizable. *)
  let serialising = true

  let create_with ?seed ?delay ?faults cfg =
    P.create_state ?seed ?delay ?faults ~who cfg

  let create ?seed ?delay ?faults ~n () =
    create_with ?seed ?delay ?faults (P.config_of_n ~who n)

  let net = P.net
  let value = P.value
  let handle = P.handle
  let start t ~reply:_ ~op:_ ~origin = P.launch t ~origin ~operation:()
  let verdict _ ~origin:_ = P.verdict ~who
  let copy = P.copy
end

include Counter.Host.Make (Protocol)

include P.Observe (struct
  type host = t

  let core = core
end)

let create_with ?seed ?delay ?faults cfg =
  host (Protocol.create_with ?seed ?delay ?faults cfg)
