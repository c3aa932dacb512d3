module I = Counter.Counter_intf

(* Every correct counter, the paper's first; each module is named only
   here. Every counter is hosted by Counter.Host, so each one is kept in
   the open-loop view and [all] is read off this list. *)
let concurrent_all : I.concurrent list =
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

let to_counter (module C : I.CONCURRENT) : I.counter = (module C)

let all = List.map to_counter concurrent_all

(* Correct but priced out of [all]: every op is (f+1) phases of all-to-all
   exchange, O(f * n^2) messages, so default sweeps (dcount compare runs
   Registry.all up to n = 1024) would drown in it. [find] still resolves
   it by name. *)
let sync_count_open : I.concurrent = (module Core.Sync_counter)

let broken_open : I.concurrent list =
  [
    (module Amnesiac);
    (module Race_reply);
    (module Ft_no_handoff);
    (module Durable_no_cas);
    (module Sync_no_threshold);
  ]

let sync_count = to_counter sync_count_open

let amnesiac : I.counter = (module Amnesiac)

let broken = List.map to_counter broken_open

let name_of (module C : I.S) = C.name

let find_concurrent name =
  List.find_opt
    (fun (module C : I.CONCURRENT) -> C.name = name)
    (concurrent_all @ (sync_count_open :: broken_open))

let find name = Option.map to_counter (find_concurrent name)

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
