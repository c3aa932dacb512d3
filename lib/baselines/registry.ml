module I = Counter.Counter_intf

(* Every correct counter, the paper's first; each module is named only
   here. *)
let all : I.counter list =
  [
    (module Core.Retire_counter);
    (module Core.Retire_local);
    (module Core.Retire_ft);
    (module Central);
    (module Static_tree);
    (module Combining_tree);
    (module Counting_network);
    (module Periodic_counter);
    (module Diffracting_tree);
    (module Quorum_counter.Over_majority);
    (module Quorum_counter.Over_grid);
    (module Quorum_counter.Over_tree);
    (module Quorum_counter.Over_wall);
    (module Quorum_counter.Over_plane);
    (module Core.Durable_counter);
  ]

(* Correct but priced out of [all]: every op is (f+1) phases of all-to-all
   exchange, O(f * n^2) messages, so default sweeps (dcount compare runs
   Registry.all up to n = 1024) would drown in it. [find] still resolves
   it by name. *)
let sync_count : I.counter = (module Core.Sync_counter)

let amnesiac : I.counter = (module Amnesiac)

let broken : I.counter list =
  [
    amnesiac;
    (module Race_reply);
    (module Ft_no_handoff);
    (module Durable_no_cas);
    (module Sync_no_threshold);
  ]

let name_of (module C : I.S) = C.name

let find name =
  List.find_opt (fun c -> name_of c = name) (all @ (sync_count :: broken))

(* benchmark/ still looks counters up by this name; the benchmark step of
   ROADMAP item 1 deletes it. *)
let find_concurrent = find

let names () = List.map name_of all

let promise name =
  let promises : (I.counter * Counter.Promise.t) list =
    [
      ((module Core.Retire_ft), Live_origins);
      ((module Core.Durable_counter), Durable);
      ((module Core.Sync_counter), Agreement);
      ((module Sync_no_threshold), Splits);
      ((module Quorum_counter.Over_majority), Quorum_live);
      ((module Quorum_counter.Over_grid), Quorum_live);
      ((module Quorum_counter.Over_tree), Quorum_live);
      ((module Quorum_counter.Over_wall), Quorum_live);
      ((module Quorum_counter.Over_plane), Quorum_live);
    ]
  in
  match List.find_opt (fun (c, _) -> name_of c = name) promises with
  | Some (_, p) -> p
  | None -> Completes

(* Handles on single members of [all], resolved by registry name. *)
let member name =
  match find name with
  | Some c -> c
  | None -> invalid_arg ("Registry: no counter named " ^ name)

let retire_tree = member "retire-tree"

let retire_tree_local = member "retire-tree-local"

let retire_ft = member "retire-ft"

let central = member "central"

let static_tree = member "static-tree"

let counting_network = member "counting-net"

let quorum_majority = member "quorum-majority"

let quorum_grid = member "quorum-grid"
