(* The four workloads. Each is a list of cells generated from the seed;
   [smoke] shrinks every cell to a fraction of a second so the whole set
   can run inside [dune runtest]. Why each workload exists, and which
   layer it stresses or bypasses, is recorded in README.md and
   BENCHMARK.json. *)

type t = {
  name : string;
  cells : Cells.cell list;
  probe_n : int;  (** network size for the traced run's relay probes *)
}

let names = [ "closed-sweep"; "open-load"; "chaos-faults"; "mc-explore" ]

let counter name =
  match Baselines.Registry.find name with
  | Some c -> c
  | None -> invalid_arg ("no counter named " ^ name)

let concurrent name =
  match Baselines.Registry.find_concurrent name with
  | Some c -> c
  | None -> invalid_arg ("no concurrent counter named " ^ name)

(* The paper's experiment: each processor increments once, in a
   seed-shuffled order, unit delays, no faults. *)
let closed_sweep ~smoke ~seed =
  let big = if smoke then 81 else 15_625 in
  let wide_grid = if smoke then 16 else 1_024 in
  let wide_majority = if smoke then 16 else 512 in
  let seeds = if smoke then [ seed ] else [ seed; seed + 1; seed + 2 ] in
  let cell seed (name, n) =
    Cells.Closed
      {
        counter = counter name;
        n;
        schedule = Counter.Schedule.Each_once_shuffled;
        delay = Sim.Delay.Constant 1.0;
        faults = "none";
        seed;
        guarantee = Exact;
      }
  in
  let sizes =
    List.map
      (fun name -> (name, big))
      [
        "retire-tree";
        "retire-tree-local";
        "central";
        "static-tree";
        "combining";
        "counting-net";
        "periodic-net";
        "diffracting";
        "quorum-tree";
      ]
    @ [ ("quorum-grid", wide_grid); ("quorum-majority", wide_majority) ]
  in
  {
    name = "closed-sweep";
    cells = List.concat_map (fun s -> List.map (cell s) sizes) seeds;
    probe_n = big;
  }

(* Poisson arrivals per source and exponential delays: deep overlap at
   rate 2.0, a serialising retire tree, and two shallow-overlap cells. *)
let open_load ~smoke ~seed =
  let ops = if smoke then 400 else 40_000 in
  let cell ?(linearizable = false) name n rate =
    Cells.Open
      {
        counter = concurrent name;
        n;
        arrivals = Sim.Arrivals.Poisson rate;
        ops;
        delay = Sim.Delay.Exponential 1.0;
        seed;
        linearizable;
      }
  in
  let wide = if smoke then 16 else 256 and tree = if smoke then 81 else 1_024 in
  {
    name = "open-load";
    cells =
      [
        cell ~linearizable:true "central" wide 2.0;
        cell ~linearizable:true "combining" wide 2.0;
        cell "counting-net" wide 2.0;
        cell "diffracting" wide 2.0;
        cell ~linearizable:true "retire-tree" tree 0.5;
        cell ~linearizable:true "combining" 64 0.05;
        cell "counting-net" 64 0.05;
      ];
    probe_n = tree;
  }

(* Fault plans generated from the seed: victims, crash triggers and
   revival times come from one Rng stream per cell. *)
let crash_plan ~seed ~n ~victims ~recover ~deliveries ~span ~drop ~dup =
  let rng = Sim.Rng.create ~seed in
  let perm = Sim.Rng.permutation rng n in
  let crash i =
    let p = perm.(i) + 1 in
    if recover then
      let t = Sim.Rng.float rng span in
      [
        Printf.sprintf "crash:%d@%.2f" p t;
        Printf.sprintf "recover:%d@%.2f" p (t +. 32. +. Sim.Rng.float rng 64.);
      ]
    else [ Printf.sprintf "crash:%d@#%d" p (1 + Sim.Rng.int rng deliveries) ]
  in
  String.concat "/"
    (List.concat (List.init (min victims n) crash)
    @ (if drop > 0. then [ Printf.sprintf "drop:%g" drop ] else [])
    @ if dup > 0. then [ Printf.sprintf "dup:%g" dup ] else [])

(* The b = f plan of [dcount chaos --byz]: the kings from the last phase
   backwards turn Byzantine at time 0, rules cycle off-by-7 / max-int /
   replay-stale, every second victim equivocates. *)
let king_plan ~n =
  let f = (n - 1) / 3 in
  let victims = List.init f (fun i -> f + 1 - i) in
  let rules = [| "off-by-7"; "max-int"; "replay-stale" |] in
  String.concat "/"
    (List.map (Printf.sprintf "byz:%d@0") victims
    @ List.mapi
        (fun i p -> Printf.sprintf "byzval:%d:%s" p rules.(i mod 3))
        victims
    @ List.map
        (Printf.sprintf "byzeq:%d")
        (List.filteri (fun i _ -> i mod 2 = 0) victims))

let chaos_faults ~smoke ~seed =
  let seeds = if smoke then [ seed ] else List.init 5 (fun i -> seed + i) in
  let ft_n = if smoke then 81 else 1_024 in
  let ft_crashes = if smoke then [ 4 ] else [ 4; 16; 64 ] in
  let q_n = if smoke then 9 else 65 in
  let q_crashes = if smoke then [ 2 ] else [ 8; 32 ] in
  let durable_n = if smoke then 4 else 16 in
  let sync_n = if smoke then 7 else 13 in
  let cell ~seed ?(schedule_ops = 2) name n faults guarantee =
    Cells.Closed
      {
        counter = counter name;
        n;
        schedule = Counter.Schedule.Round_robin (schedule_ops * n);
        delay = Sim.Delay.Constant 1.0;
        faults;
        seed;
        guarantee;
      }
  in
  let per_seed seed =
    let plan_seed k = (seed * 1_000) + k in
    let ft =
      List.concat_map
        (fun f ->
          List.map
            (fun recover ->
              cell ~seed "retire-ft" ft_n
                (crash_plan
                   ~seed:(plan_seed (f + Bool.to_int recover))
                   ~n:ft_n ~victims:f ~recover ~deliveries:(40 * ft_n)
                   ~span:(8. *. float_of_int ft_n) ~drop:0. ~dup:0.)
                Live_origins)
            [ false; true ])
        ft_crashes
    in
    let quorum =
      List.concat_map
        (fun f ->
          List.map
            (fun drop ->
              cell ~seed "quorum-majority" q_n
                (crash_plan
                   ~seed:(plan_seed (100 + f + int_of_float (drop *. 100.)))
                   ~n:q_n ~victims:f ~recover:false ~deliveries:(64 * q_n)
                   ~span:0. ~drop ~dup:0.)
                (if drop > 0. then Safe else Live_origins))
            [ 0.; 0.05 ])
        q_crashes
    in
    let durable =
      cell ~seed ~schedule_ops:4 "durable" durable_n
        (crash_plan ~seed:(plan_seed 200) ~n:durable_n ~victims:2 ~recover:true
           ~deliveries:0 ~span:(16. *. float_of_int durable_n) ~drop:0.1
           ~dup:0.05)
        Durable
    in
    let sync = cell ~seed "sync-count" sync_n (king_plan ~n:sync_n) Exact in
    ft @ quorum @ [ durable; sync ]
  in
  {
    name = "chaos-faults";
    cells = List.concat_map per_seed seeds;
    probe_n = ft_n;
  }

(* Fixed budgets; the explorer never touches the event heap. *)
let mc_explore ~smoke ~seed =
  let cell ?(states = 200_000) ?(depth = 400) name n schedule faults expect =
    Cells.Mc
      {
        counter = counter name;
        n;
        schedule;
        faults;
        config =
          {
            Mc.Explore.default_config with
            max_states = states;
            max_depth = depth;
          };
        seed;
        expect;
      }
  in
  let recover = "crash:1@99/recover:1@120" in
  let byz = "byz:2@99/byzval:2:off-by-1/byzeq:2" in
  {
    name = "mc-explore";
    cells =
      [
        (if smoke then
           cell "retire-tree" 8 "explicit:1,8" "none" Cells.Survives
         else
           cell ~states:100_000 "retire-tree" 8 "explicit:1,8,4,2" "none"
             Cells.Budget);
        cell ~depth:(if smoke then 4 else 6) "retire-ft" 8 "explicit:2,5"
          "crash:1@99" Cells.Survives;
        cell ~states:300_000 ~depth:10 "durable-no-cas" 2 "explicit:2" recover
          (Cells.Violation ("manifest-regressed", 35));
        cell
          ~states:(if smoke then 500 else 4_000)
          ~depth:100 "sync-count" 4 "explicit:1" byz Cells.Survives;
      ];
    probe_n = 8;
  }

let find name ~smoke ~seed =
  match name with
  | "closed-sweep" -> Some (closed_sweep ~smoke ~seed)
  | "open-load" -> Some (open_load ~smoke ~seed)
  | "chaos-faults" -> Some (chaos_faults ~smoke ~seed)
  | "mc-explore" -> Some (mc_explore ~smoke ~seed)
  | _ -> None
