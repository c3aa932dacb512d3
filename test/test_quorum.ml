(* Tests for the quorum-system library: intersection (the defining
   property), construction shapes, load and probe complexity. *)

let check = Alcotest.check

let systems : (Quorum.Quorum_intf.system * int list) list =
  [
    ((module Quorum.Majority), [ 1; 2; 5; 10; 17 ]);
    ((module Quorum.Grid), [ 1; 4; 9; 16; 49 ]);
    ((module Quorum.Tree_quorum), [ 1; 3; 7; 15; 31 ]);
    ((module Quorum.Crumbling_wall), [ 1; 2; 5; 14; 20; 33 ]);
    ((module Quorum.Projective_plane), [ 7; 13; 31; 57 ]);
  ]

let test_well_formed () =
  List.iter
    (fun (((module Q : Quorum.Quorum_intf.S) as q), sizes) ->
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d" Q.name n)
            true
            (Quorum.Check.well_formed q ~n ~slots:40))
        sizes)
    systems

let test_pairwise_intersection () =
  List.iter
    (fun (((module Q : Quorum.Quorum_intf.S) as q), sizes) ->
      List.iter
        (fun n ->
          match Quorum.Check.first_violation q ~n ~slots:60 with
          | None -> ()
          | Some (i, j) ->
              Alcotest.failf "%s n=%d: quorums %d and %d disjoint" Q.name n i j)
        sizes)
    systems

let prop_intersection_random_slots =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random slot pairs intersect" ~count:300
       QCheck2.Gen.(
         tup3 (int_range 0 3) (int_range 1 60) (pair (int_range 0 500) (int_range 0 500)))
       (fun (sys_i, n, (s1, s2)) ->
         let (module Q : Quorum.Quorum_intf.S), _ = List.nth systems sys_i in
         let n = Q.supported_n n in
         let q = Q.create ~n in
         let a = Q.quorum q ~slot:s1 and b = Q.quorum q ~slot:s2 in
         List.exists (fun e -> List.mem e b) a))

let test_majority_size () =
  let q = Quorum.Majority.create ~n:10 in
  check Alcotest.int "size 6" 6 (Quorum.Majority.quorum_size q);
  check Alcotest.int "members" 6
    (List.length (Quorum.Majority.quorum q ~slot:3))

let test_grid_shape () =
  check Alcotest.int "supported 10 -> 16" 16 (Quorum.Grid.supported_n 10);
  let q = Quorum.Grid.create ~n:16 in
  check Alcotest.int "side" 4 (Quorum.Grid.side q);
  check Alcotest.int "|Q| = 2r-1" 7 (Quorum.Grid.quorum_size q);
  (* Element 1 (row 0, col 0): quorum = row {1,2,3,4} + column
     {1,5,9,13}. *)
  Alcotest.(check (list int))
    "row+column" [ 1; 2; 3; 4; 5; 9; 13 ]
    (Quorum.Grid.quorum q ~slot:0)

let test_tree_quorum_paths () =
  let q = Quorum.Tree_quorum.create ~n:7 in
  check Alcotest.int "levels" 3 (Quorum.Tree_quorum.levels q);
  (* Root-to-leaf paths in the heap layout 1..7: leaves 4..7. *)
  Alcotest.(check (list int)) "path 0" [ 1; 2; 4 ]
    (Quorum.Tree_quorum.path_quorum q ~leaf:0);
  Alcotest.(check (list int)) "path 3" [ 1; 3; 7 ]
    (Quorum.Tree_quorum.path_quorum q ~leaf:3)

let test_tree_quorum_root_everywhere () =
  (* The tree quorum's known weakness: the root is in every path. *)
  let q = Quorum.Tree_quorum.create ~n:15 in
  for slot = 0 to 20 do
    Alcotest.(check bool) "root present" true
      (List.mem 1 (Quorum.Tree_quorum.quorum q ~slot))
  done

let test_tree_recovery_avoids_failures () =
  let q = Quorum.Tree_quorum.create ~n:7 in
  (* Root dead: quorum must substitute both children's quorums. *)
  (match Quorum.Tree_quorum.recovery_quorum q ~failed:(fun e -> e = 1) with
  | Some members ->
      Alcotest.(check bool) "no dead member" true (not (List.mem 1 members));
      Alcotest.(check bool) "covers both subtrees" true
        (List.mem 2 members && List.mem 3 members)
  | None -> Alcotest.fail "recovery expected");
  (* All leaves dead: no quorum survives. *)
  match
    Quorum.Tree_quorum.recovery_quorum q ~failed:(fun e -> e >= 4)
  with
  | None -> ()
  | Some q -> Alcotest.failf "unexpected quorum of size %d" (List.length q)

let test_crumbling_wall_rows () =
  let w = Quorum.Crumbling_wall.create ~n:9 in
  (* Triangle widths 2,3,4. *)
  Alcotest.(check (list (list int)))
    "rows" [ [ 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7; 8; 9 ] ]
    (Quorum.Crumbling_wall.rows w)

let test_crumbling_wall_explicit () =
  let w = Quorum.Crumbling_wall.create_rows ~widths:[ 3; 3 ] in
  check Alcotest.int "n" 6 (Quorum.Crumbling_wall.n w);
  (* A quorum using the top row = the whole row + one rep below. *)
  let q0 = Quorum.Crumbling_wall.quorum w ~slot:0 in
  Alcotest.(check bool) "contains full top row" true
    (List.for_all (fun e -> List.mem e q0) [ 1; 2; 3 ]);
  check Alcotest.int "size 4" 4 (List.length q0)

let test_projective_plane_structure () =
  (* Fano plane: q = 2, n = 7, lines of 3, pairwise intersections of
     exactly one point. *)
  let t = Quorum.Projective_plane.create ~n:7 in
  check Alcotest.int "order" 2 (Quorum.Projective_plane.order t);
  check Alcotest.int "|Q|" 3 (Quorum.Projective_plane.quorum_size t);
  let lines = Quorum.Projective_plane.lines t in
  check Alcotest.int "7 lines" 7 (List.length lines);
  List.iter
    (fun l -> check Alcotest.int "line size" 3 (List.length l))
    lines;
  let arr = Array.of_list lines in
  for i = 0 to 6 do
    for j = i + 1 to 6 do
      let common = List.filter (fun e -> List.mem e arr.(j)) arr.(i) in
      check Alcotest.int
        (Printf.sprintf "lines %d,%d meet in exactly one point" i j)
        1 (List.length common)
    done
  done

let test_projective_plane_supported_n () =
  check Alcotest.int "rounds to fano" 7 (Quorum.Projective_plane.supported_n 5);
  check Alcotest.int "q=3" 13 (Quorum.Projective_plane.supported_n 8);
  check Alcotest.int "q=5" 31 (Quorum.Projective_plane.supported_n 14);
  (* q = 4 is a prime power we do not construct; 21 rounds to q = 5. *)
  check Alcotest.int "skips prime powers" 31
    (Quorum.Projective_plane.supported_n 21)

let test_projective_plane_optimal_load () =
  (* Rotating through all lines, every point is used exactly q+1 times:
     load (q+1)/n ~ 1/sqrt n, Naor-Wool optimal. *)
  let n = 31 in
  let profile = Quorum.Load.measure (module Quorum.Projective_plane) ~n () in
  check (Alcotest.float 1e-9) "load = (q+1)/n" (6. /. 31.)
    profile.Quorum.Load.load;
  (* Strictly better than the grid at comparable size. *)
  let grid = Quorum.Load.measure (module Quorum.Grid) ~n:36 () in
  Alcotest.(check bool) "beats grid" true
    (profile.Quorum.Load.load < grid.Quorum.Load.load)

let test_load_profiles_ordering () =
  (* Grid load must be well below majority load at the same n. *)
  let n = 49 in
  let majority = Quorum.Load.measure (module Quorum.Majority) ~n () in
  let grid = Quorum.Load.measure (module Quorum.Grid) ~n () in
  Alcotest.(check bool)
    (Printf.sprintf "grid %.3f < majority %.3f" grid.Quorum.Load.load
       majority.Quorum.Load.load)
    true
    (grid.Quorum.Load.load < majority.Quorum.Load.load);
  (* Tree quorums have load 1 at the root. *)
  let tree = Quorum.Load.measure (module Quorum.Tree_quorum) ~n:31 () in
  check (Alcotest.float 1e-9) "tree root load = 1" 1.0 tree.Quorum.Load.load

let test_load_counts_sum () =
  let n = 16 in
  let accesses = 16 in
  let counts = Quorum.Load.counts (module Quorum.Grid) ~n ~accesses in
  let total = Array.fold_left ( + ) 0 counts in
  (* Every access touches exactly 2r-1 = 7 elements. *)
  check Alcotest.int "sum = accesses * |Q|" (accesses * 7) total

let test_probe_no_failures () =
  (* Without failures the first quorum certifies after |Q| probes. *)
  let outcome =
    Quorum.Probe.search (module Quorum.Grid) ~n:16 ~failed:(fun _ -> false)
  in
  (match outcome.Quorum.Probe.found with
  | Some members -> check Alcotest.int "probes = |Q|" (List.length members) outcome.Quorum.Probe.probes
  | None -> Alcotest.fail "expected a quorum");
  check Alcotest.int "one quorum examined" 1 outcome.Quorum.Probe.quorums_examined

let test_probe_skips_dead () =
  (* Kill a few scattered elements (killing a full grid row would hit
     every column and thus every quorum): the searcher must pay extra
     probes but still succeed. *)
  let dead = [ 1; 2; 5 ] in
  let outcome =
    Quorum.Probe.search (module Quorum.Grid) ~n:16
      ~failed:(fun e -> List.mem e dead)
  in
  match outcome.Quorum.Probe.found with
  | Some members ->
      Alcotest.(check bool) "no dead member" true
        (List.for_all (fun e -> not (List.mem e dead)) members)
  | None -> Alcotest.fail "expected recovery"

let test_probe_total_failure () =
  let outcome =
    Quorum.Probe.search (module Quorum.Majority) ~n:9 ~failed:(fun _ -> true)
  in
  Alcotest.(check bool) "no quorum" true (outcome.Quorum.Probe.found = None)

let test_probe_montecarlo_sane () =
  let mean, success =
    Quorum.Probe.expected_probes (module Quorum.Grid) ~n:25 ~fraction:0.1
      ~trials:50 ~seed:3
  in
  Alcotest.(check bool) "mean probes positive" true (mean > 0.);
  Alcotest.(check bool) "mostly succeeds at 10% failures" true (success > 0.5)

let prop_probe_found_quorums_are_live =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"probe results contain no dead elements"
       ~count:100
       QCheck2.Gen.(tup3 (int_range 0 3) (int_range 4 40) (int_range 0 1000))
       (fun (sys_i, n, seed) ->
         let (module Q : Quorum.Quorum_intf.S), _ = List.nth systems sys_i in
         let n = Q.supported_n n in
         let rng = Sim.Rng.create ~seed in
         let failures = Quorum.Probe.random_failures rng ~n ~fraction:0.2 in
         let outcome =
           Quorum.Probe.search (module Q) ~n ~failed:(fun e -> failures.(e))
         in
         match outcome.Quorum.Probe.found with
         | None -> true
         | Some members -> List.for_all (fun e -> not failures.(e)) members))

let () =
  Alcotest.run "quorum"
    [
      ( "intersection",
        [
          Alcotest.test_case "well formed" `Quick test_well_formed;
          Alcotest.test_case "pairwise intersection" `Quick test_pairwise_intersection;
          prop_intersection_random_slots;
        ] );
      ( "constructions",
        [
          Alcotest.test_case "majority size" `Quick test_majority_size;
          Alcotest.test_case "grid shape" `Quick test_grid_shape;
          Alcotest.test_case "tree paths" `Quick test_tree_quorum_paths;
          Alcotest.test_case "tree root everywhere" `Quick test_tree_quorum_root_everywhere;
          Alcotest.test_case "tree recovery" `Quick test_tree_recovery_avoids_failures;
          Alcotest.test_case "wall rows" `Quick test_crumbling_wall_rows;
          Alcotest.test_case "wall explicit" `Quick test_crumbling_wall_explicit;
          Alcotest.test_case "projective plane structure" `Quick test_projective_plane_structure;
          Alcotest.test_case "projective plane sizes" `Quick test_projective_plane_supported_n;
          Alcotest.test_case "projective plane optimal load" `Quick test_projective_plane_optimal_load;
        ] );
      ( "load",
        [
          Alcotest.test_case "profiles ordering" `Quick test_load_profiles_ordering;
          Alcotest.test_case "counts sum" `Quick test_load_counts_sum;
        ] );
      ( "probe",
        [
          Alcotest.test_case "no failures" `Quick test_probe_no_failures;
          Alcotest.test_case "skips dead" `Quick test_probe_skips_dead;
          Alcotest.test_case "total failure" `Quick test_probe_total_failure;
          Alcotest.test_case "monte carlo" `Quick test_probe_montecarlo_sane;
          prop_probe_found_quorums_are_live;
        ] );
    ]
