(* Tests for the Section 3 machinery: the bound itself, the weight
   function, and the executable adversary. *)

let check = Alcotest.check

module LB = Core.Lower_bound
module W = Core.Weights
module A = Core.Adversary

let test_k_of_n_values () =
  List.iter
    (fun (n, k) -> check Alcotest.int (Printf.sprintf "n=%d" n) k (LB.k_of_n n))
    [ (1, 1); (7, 1); (8, 2); (80, 2); (81, 3); (1024, 4); (15625, 5) ]

let test_k_grows_slowly () =
  (* k = Theta(log n / log log n): doubling n rarely changes k. *)
  let k1 = LB.k_of_n 10_000 and k2 = LB.k_of_n 1_000_000 in
  Alcotest.(check bool) "k(1e4) <= k(1e6)" true (k1 <= k2);
  Alcotest.(check bool) "both tiny" true (k2 <= 6)

let test_satisfied_by () =
  Alcotest.(check bool) "20 >= k(81)=3" true
    (LB.satisfied_by ~n:81 ~bottleneck_load:20);
  Alcotest.(check bool) "2 < k(81)=3" false
    (LB.satisfied_by ~n:81 ~bottleneck_load:2);
  (* One processor increments locally: no message is needed, so the
     theorem asks nothing of it. *)
  Alcotest.(check bool) "n = 1 needs no message" true
    (LB.satisfied_by ~n:1 ~bottleneck_load:0)

(* ------------------------------------------------------------------ *)
(* Weights *)

let comm_list_of nodes =
  (* Build a comm list via a synthetic trace whose deliveries walk the
     node sequence. *)
  match nodes with
  | [] -> invalid_arg "comm_list_of: empty"
  | origin :: rest ->
      let t = Sim.Trace.create ~op_index:0 ~origin () in
      let _ =
        List.fold_left
          (fun (i, src) dst ->
            Sim.Trace.record t
              { Sim.Trace.seq = i + 1; time = float_of_int i; src; dst; tag = "m"; parent = i };
            (i + 1, dst))
          (0, origin) rest
      in
      Sim.Comm_list.of_trace t

let test_weight_geometric () =
  (* All loads zero: w = sum 1/base^j over positions. *)
  let l = comm_list_of [ 1; 2; 3 ] in
  let w = W.weight ~base:2. ~load:(fun _ -> 0) l in
  check (Alcotest.float 1e-9) "w = 1/2 + 1/4 + 1/8" 0.875 w

let test_weight_load_sensitive () =
  let l = comm_list_of [ 1; 2 ] in
  let load p = if p = 1 then 3 else 0 in
  (* (3+1)/2 + (0+1)/4 *)
  let w = W.weight ~base:2. ~load l in
  check (Alcotest.float 1e-9) "w" 2.25 w

let test_weight_position_discount () =
  (* The same load later in the list contributes less. *)
  let early = W.weight ~base:4. ~load:(fun p -> if p = 9 then 8 else 0)
      (comm_list_of [ 9; 1 ])
  and late = W.weight ~base:4. ~load:(fun p -> if p = 9 then 8 else 0)
      (comm_list_of [ 1; 9 ])
  in
  Alcotest.(check bool) "early > late" true (early > late)

let test_weight_base_guard () =
  let l = comm_list_of [ 1 ] in
  match W.weight ~base:1. ~load:(fun _ -> 0) l with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected base guard"

let test_trajectory_monotone () =
  let obs w =
    { W.op_index = 0; list_length = 1; weight = w; guaranteed_gain = 0. }
  in
  Alcotest.(check bool) "monotone" true
    (W.trajectory_monotone [ obs 1.; obs 1.5; obs 1.5; obs 2. ]);
  Alcotest.(check bool) "dip detected" false
    (W.trajectory_monotone [ obs 1.; obs 0.5 ])

let prop_weight_bounded_by_geometric_series =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"w <= (max load + 1) / (base - 1)" ~count:200
       QCheck2.Gen.(
         pair
           (list_size (int_range 1 20) (int_range 1 50))
           (list_size (int_range 1 20) (int_range 0 30)))
       (fun (nodes, loads) ->
         let l = comm_list_of nodes in
         let load p = List.nth loads (p mod List.length loads) in
         let max_load =
           List.fold_left (fun acc p -> max acc (load p)) 0
             (Sim.Comm_list.nodes l)
         in
         let base = 2. in
         W.weight ~base ~load l
         <= (float_of_int max_load +. 1.) /. (base -. 1.) +. 1e-9))

(* ------------------------------------------------------------------ *)
(* Adversary *)

let adversary_result =
  (* The adversary is the most expensive fixture; run it once against the
     paper's counter at n = 8 and reuse. *)
  lazy (A.run ~sample:8 Baselines.Registry.retire_tree ~n:8)

let test_adversary_is_each_once () =
  let r = Lazy.force adversary_result in
  let order = List.sort compare (Array.to_list r.order) in
  Alcotest.(check (list int))
    "order is a permutation of processors" (List.init r.n (fun i -> i + 1))
    order

let test_adversary_correct_execution () =
  let r = Lazy.force adversary_result in
  Alcotest.(check bool) "values correct" true r.correct;
  Alcotest.(check bool) "hot spot" true r.hotspot_ok

let test_adversary_bound () =
  let r = Lazy.force adversary_result in
  Alcotest.(check bool) "bottleneck >= k" true r.bound_satisfied

let test_adversary_proof_invariants () =
  let r = Lazy.force adversary_result in
  Alcotest.(check bool) "l_i <= L_i" true r.li_never_exceeds_big_li;
  Alcotest.(check bool) "weights monotone" true r.weights_monotone;
  check Alcotest.int "one observation per op" r.n
    (List.length r.q_observations)

let test_adversary_q_is_last () =
  let r = Lazy.force adversary_result in
  check Alcotest.int "q = last chosen" r.order.(r.n - 1) r.q

let test_adversary_on_central () =
  (* Against the central counter the adversary's greedy choice is almost
     irrelevant: the holder is the bottleneck with ~2(n-1). *)
  let r = A.run ~sample:100 Baselines.Registry.central ~n:12 in
  Alcotest.(check bool) "correct" true r.correct;
  check Alcotest.int "bottleneck is the holder" 1 r.bottleneck_proc;
  Alcotest.(check bool) "load ~ 2(n-1)" true (r.bottleneck_load >= 2 * (r.n - 1));
  Alcotest.(check bool) "bound" true r.bound_satisfied

let test_adversary_weights_monotone_across_counters () =
  List.iter
    (fun c ->
      let r = A.run ~sample:6 c ~n:8 in
      let (module C : Counter.Counter_intf.S) = c in
      Alcotest.(check bool) (C.name ^ " weights monotone") true
        r.weights_monotone;
      Alcotest.(check bool) (C.name ^ " bound") true r.bound_satisfied)
    [
      Baselines.Registry.central;
      Baselines.Registry.static_tree;
      Baselines.Registry.counting_network;
      Baselines.Registry.quorum_grid;
    ]

let test_adversary_sample_caps_work () =
  let exact = A.run ~sample:max_int Baselines.Registry.central ~n:8 in
  let sampled = A.run ~sample:2 Baselines.Registry.central ~n:8 in
  (* Both are valid each-once sequences. *)
  Alcotest.(check bool) "exact correct" true exact.correct;
  Alcotest.(check bool) "sampled correct" true sampled.correct

let () =
  Alcotest.run "lower-bound"
    [
      ( "bound",
        [
          Alcotest.test_case "k table" `Quick test_k_of_n_values;
          Alcotest.test_case "k grows slowly" `Quick test_k_grows_slowly;
          Alcotest.test_case "satisfied_by" `Quick test_satisfied_by;
        ] );
      ( "weights",
        [
          Alcotest.test_case "geometric" `Quick test_weight_geometric;
          Alcotest.test_case "load sensitive" `Quick test_weight_load_sensitive;
          Alcotest.test_case "position discount" `Quick test_weight_position_discount;
          Alcotest.test_case "base guard" `Quick test_weight_base_guard;
          Alcotest.test_case "trajectory monotone" `Quick test_trajectory_monotone;
          prop_weight_bounded_by_geometric_series;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "each-once order" `Quick test_adversary_is_each_once;
          Alcotest.test_case "correct execution" `Quick test_adversary_correct_execution;
          Alcotest.test_case "bound satisfied" `Quick test_adversary_bound;
          Alcotest.test_case "proof invariants" `Quick test_adversary_proof_invariants;
          Alcotest.test_case "q is last" `Quick test_adversary_q_is_last;
          Alcotest.test_case "vs central" `Quick test_adversary_on_central;
          Alcotest.test_case "across counters" `Slow test_adversary_weights_monotone_across_counters;
          Alcotest.test_case "sampling" `Quick test_adversary_sample_caps_work;
        ] );
    ]
