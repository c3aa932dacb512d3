(* Property tests for the structure-of-arrays 4-ary event heap: the model
   is a stable sort by (priority, insertion order), which is exactly the
   delivery-order contract the discrete-event engine relies on. *)

let check = Alcotest.check

module Heap = Sim.Heap

(* Reference model: stable sort on priority preserves insertion order of
   ties, like the heap's sequence numbers. *)
let model_of items =
  List.stable_sort (fun (p1, _) (p2, _) -> compare (p1 : float) p2) items

let drain h =
  let rec go acc =
    match Heap.pop h with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let prop_pop_matches_model =
  QCheck2.Test.make ~name:"destructive pops = stable sort by priority"
    ~count:300
    QCheck2.Gen.(list (pair (float_bound_inclusive 100.) small_int))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.push h ~prio:p v) items;
      drain h = model_of items)

let prop_to_sorted_list_matches_model =
  QCheck2.Test.make ~name:"to_sorted_list = model, non-destructively"
    ~count:200
    QCheck2.Gen.(list (pair (float_bound_inclusive 10.) small_int))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.push h ~prio:p v) items;
      let sorted = Heap.to_sorted_list h in
      sorted = model_of items
      && Heap.size h = List.length items
      && drain h = sorted)

let prop_equal_prio_is_fifo =
  QCheck2.Test.make ~name:"equal priorities pop in insertion order"
    ~count:100
    QCheck2.Gen.(int_range 1 300)
    (fun count ->
      let h = Heap.create () in
      for v = 1 to count do
        (* Only two distinct priorities: maximal tie pressure. *)
        Heap.push h ~prio:(float_of_int (v mod 2)) v
      done;
      let evens, odds =
        List.partition (fun (p, _) -> p = 0.) (drain h)
      in
      let values l = List.map snd l in
      values evens = List.filter (fun v -> v mod 2 = 0) (List.init count (fun i -> i + 1))
      && values odds = List.filter (fun v -> v mod 2 = 1) (List.init count (fun i -> i + 1)))

(* Insert [entry] into the model, sorted by (priority, seq): its seq is
   the largest so far, so it goes after every entry of equal priority. *)
let rec insert ((prio, _, _) as entry) = function
  | ((p, _, _) as first) :: rest when Float.compare p prio <= 0 ->
      first :: insert entry rest
  | model -> entry :: model

(* Interleaved pushes and pops against a running reference model. *)
let prop_interleaved_ops_match_model =
  QCheck2.Test.make ~name:"interleaved push/pop tracks the model" ~count:200
    QCheck2.Gen.(list (pair (option (float_bound_inclusive 50.)) small_int))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, v) ->
          match op with
          | Some prio ->
              Heap.push h ~prio v;
              model := insert (prio, !seq, v) !model;
              incr seq
          | None -> (
              match (Heap.pop h, !model) with
              | None, [] -> ()
              | Some (p, v), (mp, _, mv) :: rest ->
                  if p <> mp || v <> mv then ok := false;
                  model := rest
              | Some _, [] | None, _ :: _ -> ok := false))
        ops;
      !ok && Heap.size h = List.length !model)

let prop_clear_and_regrow =
  QCheck2.Test.make ~name:"clear resets FIFO ties and capacity regrows"
    ~count:50
    QCheck2.Gen.(pair (int_range 1 100) (int_range 1 100))
    (fun (first, second) ->
      let h = Heap.create () in
      for v = 1 to first do
        Heap.push h ~prio:1.0 v
      done;
      Heap.clear h;
      (* After clear the sequence counter restarts, so a fresh all-ties
         batch must still pop FIFO. *)
      for v = 1 to second do
        Heap.push h ~prio:2.0 v
      done;
      Heap.is_empty h = false
      && List.map snd (drain h) = List.init second (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* unit tests for the new accessors *)

let test_capacity_presize () =
  let h : int Heap.t = Heap.create ~capacity:64 () in
  check Alcotest.int "pre-sized" 64 (Heap.capacity h);
  for v = 1 to 64 do
    Heap.push h ~prio:(float_of_int v) v
  done;
  check Alcotest.int "no growth at fill" 64 (Heap.capacity h);
  Heap.push h ~prio:0.5 65;
  check Alcotest.int "doubled" 128 (Heap.capacity h)

let test_capacity_growth_from_empty () =
  let h = Heap.create () in
  check Alcotest.int "empty capacity" 0 (Heap.capacity h);
  for v = 1 to 100 do
    Heap.push h ~prio:(float_of_int (100 - v)) v
  done;
  Alcotest.(check bool) "grew" true (Heap.capacity h >= 100);
  check Alcotest.int "size" 100 (Heap.size h)

let test_iter_visits_all () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~prio:(float_of_int v) v) [ 5; 3; 9; 1 ];
  let seen = ref [] in
  Heap.iter (fun p v -> seen := (p, v) :: !seen) h;
  check Alcotest.int "visited all" 4 (List.length !seen);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "saw %d" v)
        true
        (List.mem (float_of_int v, v) !seen))
    [ 5; 3; 9; 1 ]

let test_pop_top_matches_pop () =
  let h = Heap.create () in
  List.iter
    (fun (p, v) -> Heap.push h ~prio:p v)
    [ (3., "c"); (1., "a"); (2., "b") ];
  check (Alcotest.float 0.0) "top_prio" 1. (Heap.top_prio h);
  check Alcotest.string "pop_top" "a" (Heap.pop_top h);
  (match Heap.pop h with
  | Some (p, v) ->
      check (Alcotest.float 0.0) "next prio" 2. p;
      check Alcotest.string "next value" "b" v
  | None -> Alcotest.fail "expected element");
  check Alcotest.string "last" "c" (Heap.pop_top h);
  Alcotest.check_raises "top_prio empty"
    (Invalid_argument "Heap.top_prio: empty heap") (fun () ->
      ignore (Heap.top_prio h));
  Alcotest.check_raises "pop_top empty"
    (Invalid_argument "Heap.pop_top: empty heap") (fun () ->
      ignore (Heap.pop_top h))

let test_to_sorted_list_keeps_heap_intact () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~prio:(float_of_int v) v) [ 2; 1; 3 ];
  ignore (Heap.to_sorted_list h);
  check Alcotest.int "size unchanged" 3 (Heap.size h);
  check (Alcotest.float 0.0) "min unchanged" 1. (Heap.top_prio h)

(* Words the minor heap grew by while [f] ran, less the cost of the
   measurement itself. Exact: [Gc.minor_words] reads the allocation
   pointer. *)
let minor_words_of f =
  let words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  words f -. words ignore

(* A warm heap pops without allocating: [pop_top] hands the last slot's
   index, not its float priority, to the sift. Holds in every build
   profile, since nothing here needs cross-module inlining. *)
let test_pop_top_allocates_nothing () =
  let pops = 10_000 in
  let h = Heap.create () in
  for v = 1 to pops do
    Heap.push h ~prio:(float_of_int ((v * 7919) mod pops)) v
  done;
  check (Alcotest.float 0.) "words for 10 000 pops" 0.
    (minor_words_of (fun () ->
         for _ = 1 to pops do
           ignore (Sys.opaque_identity (Heap.pop_top h))
         done));
  check Alcotest.int "drained" 0 (Heap.size h)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "heap"
    [
      ( "model",
        [
          q prop_pop_matches_model;
          q prop_to_sorted_list_matches_model;
          q prop_equal_prio_is_fifo;
          q prop_interleaved_ops_match_model;
          q prop_clear_and_regrow;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "capacity pre-size" `Quick test_capacity_presize;
          Alcotest.test_case "capacity growth" `Quick
            test_capacity_growth_from_empty;
          Alcotest.test_case "iter" `Quick test_iter_visits_all;
          Alcotest.test_case "pop_top / top_prio" `Quick
            test_pop_top_matches_pop;
          Alcotest.test_case "to_sorted_list non-destructive" `Quick
            test_to_sorted_list_keeps_heap_intact;
          Alcotest.test_case "pop_top allocates nothing" `Quick
            test_pop_top_allocates_nothing;
        ] );
    ]
