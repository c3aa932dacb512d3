module I = Counter.Counter_intf

(* Every correct counter, the paper's first; each module is named only
   here. A [Concurrent] entry also implements the open-loop CONCURRENT
   interface: first-class modules cannot be downcast, so that view is kept
   where the module is named and [concurrent_all] is read off this list. *)
type entry = Sequential of I.counter | Concurrent of I.concurrent

let entries =
  [
    Concurrent (module Core.Retire_counter);
    Sequential (module Core.Retire_local);
    Sequential (module Core.Retire_ft);
    Concurrent (module Central);
    Sequential (module Static_tree);
    Concurrent (module Combining_tree);
    Concurrent (module Counting_network);
    Sequential (module Periodic_counter);
    Concurrent (module Diffracting_tree);
    Concurrent (module Quorum_counter.Over_majority);
    Concurrent (module Quorum_counter.Over_grid);
    Concurrent (module Quorum_counter.Over_tree);
    Concurrent (module Quorum_counter.Over_wall);
    Concurrent (module Quorum_counter.Over_plane);
    Sequential (module Core.Durable_counter);
  ]

let all =
  List.map
    (function Sequential c -> c | Concurrent (module C) -> (module C : I.S))
    entries

let concurrent_all =
  List.filter_map
    (function Concurrent c -> Some c | Sequential _ -> None)
    entries

(* Correct but priced out of [all]: every op is (f+1) phases of all-to-all
   exchange, O(f * n^2) messages, so default sweeps (dcount compare runs
   Registry.all up to n = 1024) would drown in it. [find] still resolves
   it by name. *)
let sync_count : I.counter = (module Core.Sync_counter)

let amnesiac : I.counter = (module Amnesiac)

let broken =
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

let names () = List.map name_of all

let find_concurrent name =
  List.find_opt
    (fun (module C : I.CONCURRENT) -> C.name = name)
    concurrent_all

let concurrent_names () =
  List.map (fun (module C : I.CONCURRENT) -> C.name) concurrent_all

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
