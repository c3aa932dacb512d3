(* Tests for the generalised sequential-object machinery: the leftist
   heap, the object specifications, the generic retirement spine (and its
   equivalence with Core.Retire_counter), the central strawman (and
   its equivalence with Baselines.Central), and the stack example of
   docs/EXTENDING.md. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Leftist heap *)

module H = Structures.Leftist_heap

let test_heap_basics () =
  let h = H.of_list [ 5; 1; 4; 1; 3 ] in
  check Alcotest.int "size" 5 (H.size h);
  check (Alcotest.option Alcotest.int) "min" (Some 1) (H.find_min h);
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] (H.to_sorted_list h)

let test_heap_empty () =
  Alcotest.(check bool) "empty" true (H.is_empty H.empty);
  Alcotest.(check bool) "find none" true (H.find_min H.empty = None);
  Alcotest.(check bool) "extract none" true (H.extract_min H.empty = None)

let test_heap_extract_order () =
  let h = H.of_list [ 9; -2; 7; 0 ] in
  match H.extract_min h with
  | Some (v, rest) ->
      check Alcotest.int "first" (-2) v;
      check (Alcotest.option Alcotest.int) "second" (Some 0) (H.find_min rest)
  | None -> Alcotest.fail "expected min"

let test_heap_persistence () =
  let h = H.of_list [ 3; 1 ] in
  let h2 = H.insert h 0 in
  (* The original heap is unchanged. *)
  check (Alcotest.option Alcotest.int) "old min" (Some 1) (H.find_min h);
  check (Alcotest.option Alcotest.int) "new min" (Some 0) (H.find_min h2)

let test_heap_merge () =
  let a = H.of_list [ 1; 5 ] and b = H.of_list [ 2; 0 ] in
  Alcotest.(check (list int))
    "merge" [ 0; 1; 2; 5 ]
    (H.to_sorted_list (H.merge a b))

let prop_heap_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"leftist invariants after random builds"
       ~count:300
       QCheck2.Gen.(list (int_range (-100) 100))
       (fun values ->
         let h = H.of_list values in
         H.check_invariants h && H.size h = List.length values))

let prop_heap_sorts =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"heap sort = List.sort" ~count:300
       QCheck2.Gen.(list (int_range (-1000) 1000))
       (fun values ->
         H.to_sorted_list (H.of_list values) = List.sort compare values))

let prop_heap_merge_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"merge preserves invariants and contents"
       ~count:200
       QCheck2.Gen.(pair (list small_int) (list small_int))
       (fun (a, b) ->
         let merged = H.merge (H.of_list a) (H.of_list b) in
         H.check_invariants merged
         && H.to_sorted_list merged = List.sort compare (a @ b)))

(* ------------------------------------------------------------------ *)
(* Object specifications *)

let test_flip_bit_spec () =
  let s0 = Structures.Flip_bit.initial in
  let s1, r1 = Structures.Flip_bit.apply s0 Structures.Flip_bit.Flip in
  let s2, r2 = Structures.Flip_bit.apply s1 Structures.Flip_bit.Flip in
  let _, r3 = Structures.Flip_bit.apply s2 Structures.Flip_bit.Read in
  Alcotest.(check bool) "first flip returns false" false r1;
  Alcotest.(check bool) "second flip returns true" true r2;
  Alcotest.(check bool) "read after two flips" false r3

let test_max_register_spec () =
  let open Structures.Max_register in
  let s1, r1 = apply initial (Write_max 5) in
  let s2, r2 = apply s1 (Write_max 3) in
  let _, r3 = apply s2 Read in
  check Alcotest.int "first write returns -inf" min_int r1;
  check Alcotest.int "second returns 5" 5 r2;
  check Alcotest.int "read" 5 r3

let test_priority_queue_spec () =
  let open Structures.Priority_queue_obj in
  let s, _ = apply initial (Insert 4) in
  let s, _ = apply s (Insert 2) in
  let s, r1 = apply s Extract_min in
  let _, r2 = apply s Find_min in
  Alcotest.(check bool) "extracted 2" true (r1 = Min (Some 2));
  Alcotest.(check bool) "next is 4" true (r2 = Min (Some 4))

let test_counter_spec () =
  let s1, r1 = Structures.Counter_obj.apply 0 Structures.Counter_obj.Inc in
  check Alcotest.int "returns old" 0 r1;
  check Alcotest.int "increments" 1 s1

(* ------------------------------------------------------------------ *)
(* Generic spine *)

module Spine_counter = Structures.Retire_spine.Make (Structures.Counter_obj)
module Spine_bit = Structures.Retire_spine.Make (Structures.Flip_bit)
module Spine_pq = Structures.Retire_spine.Make (Structures.Priority_queue_obj)
module Central_bit = Structures.Central_object.Make (Structures.Flip_bit)

(* Each operation's deliveries as (src, dst) pairs, in delivery order. *)
let hops traces =
  List.map
    (fun tr ->
      List.map (fun (e : Sim.Trace.event) -> (e.src, e.dst)) (Sim.Trace.events tr))
    traces

let check_same_run ~label ~expected_metrics ~expected_traces metrics traces =
  check
    Alcotest.(array int)
    (label ^ ": same per-processor loads")
    (Sim.Metrics.load_array expected_metrics)
    (Sim.Metrics.load_array metrics);
  check
    Alcotest.(list (list (pair int int)))
    (label ^ ": same deliveries per operation")
    (hops expected_traces) (hops traces)

(* [3n] origins drawn from a seeded stream, repeats included. *)
let random_origins ~n =
  let rng = Sim.Rng.create ~seed:n in
  List.init (3 * n) (fun _ -> 1 + Sim.Rng.int rng n)

let spine_equals_counter ~n origins =
  let spine = Spine_counter.create ~seed:4 ~n () in
  let hand = Core.Retire_counter.create ~seed:4 ~n () in
  List.iter
    (fun origin ->
      let b = Core.Retire_counter.inc hand ~origin in
      let a = Spine_counter.execute spine ~origin Structures.Counter_obj.Inc in
      check Alcotest.int "same value" b a)
    origins;
  let ms = Spine_counter.metrics spine and mh = Core.Retire_counter.metrics hand in
  let label = Printf.sprintf "n = %d" n in
  check Alcotest.int "same total messages"
    (Sim.Metrics.total_messages mh)
    (Sim.Metrics.total_messages ms);
  check Alcotest.int "same bottleneck"
    (snd (Sim.Metrics.bottleneck mh))
    (snd (Sim.Metrics.bottleneck ms));
  check Alcotest.int "same retirements"
    (Core.Retire_counter.total_retirements hand)
    (Spine_counter.total_retirements spine);
  check_same_run ~label ~expected_metrics:mh
    ~expected_traces:(Core.Retire_counter.traces hand)
    ms (Spine_counter.traces spine)

let test_spine_counter_equals_handwritten () =
  (* The generic spine instantiated with the counter object must behave
     exactly like Core.Retire_counter: same values, same per-processor
     loads and the same deliveries in every operation, over the
     each-processor-once sequence and over seeded random origins. *)
  spine_equals_counter ~n:81 (List.init 81 (fun i -> i + 1));
  List.iter
    (fun n -> spine_equals_counter ~n (random_origins ~n))
    [ 8; 81; 1024 ]

let test_spine_flip_bit_correct () =
  let n = 81 in
  let spine = Spine_bit.create ~n () in
  (* Each processor flips once: the i-th flip returns the parity of
     i-1. *)
  for i = 1 to n do
    let r = Spine_bit.execute spine ~origin:i Structures.Flip_bit.Flip in
    Alcotest.(check bool)
      (Printf.sprintf "flip %d" i)
      ((i - 1) mod 2 = 1)
      r
  done;
  Alcotest.(check bool) "final state: 81 flips = true" true
    (Spine_bit.state spine);
  Alcotest.(check bool) "believed consistent" true
    (Spine_bit.believed_consistent spine)

let test_spine_flip_bit_bottleneck_o_k () =
  let n = 81 in
  let spine = Spine_bit.create ~n () in
  for i = 1 to n do
    ignore (Spine_bit.execute spine ~origin:i Structures.Flip_bit.Flip)
  done;
  let _, bottleneck = Sim.Metrics.bottleneck (Spine_bit.metrics spine) in
  let k = Core.Lower_bound.k_of_n n in
  Alcotest.(check bool)
    (Printf.sprintf "bit bottleneck %d <= 25k+10" bottleneck)
    true
    (bottleneck <= (25 * k) + 10);
  Alcotest.(check bool) "and >= lower bound k" true (bottleneck >= k)

let test_spine_hotspot_lemma_flip_bit () =
  let n = 27 in
  let spine = Spine_bit.create ~n:(Spine_bit.supported_n n) () in
  for i = 1 to Spine_bit.n spine do
    ignore (Spine_bit.execute spine ~origin:i Structures.Flip_bit.Flip)
  done;
  Alcotest.(check bool) "hot spot lemma on flip-bit" true
    (Counter.Hotspot.holds (Spine_bit.traces spine))

let test_spine_priority_queue_sequence () =
  let n = 8 in
  let spine = Spine_pq.create ~n () in
  let open Structures.Priority_queue_obj in
  (* Interleave inserts and extracts from different processors; results
     must match the sequential specification. *)
  let r1 = Spine_pq.execute spine ~origin:1 (Insert 42) in
  let r2 = Spine_pq.execute spine ~origin:2 (Insert 7) in
  let r3 = Spine_pq.execute spine ~origin:3 Extract_min in
  let r4 = Spine_pq.execute spine ~origin:4 Find_min in
  let r5 = Spine_pq.execute spine ~origin:5 Extract_min in
  let r6 = Spine_pq.execute spine ~origin:6 Extract_min in
  Alcotest.(check bool) "acks" true (r1 = Ack && r2 = Ack);
  Alcotest.(check bool) "extract 7" true (r3 = Min (Some 7));
  Alcotest.(check bool) "find 42" true (r4 = Min (Some 42));
  Alcotest.(check bool) "extract 42" true (r5 = Min (Some 42));
  Alcotest.(check bool) "empty" true (r6 = Min None)

let prop_spine_pq_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"spine priority queue = sequential specification" ~count:20
       QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 1 8) (int_range 0 99)))
       (fun script ->
         let spine = Spine_pq.create ~n:8 () in
         let open Structures.Priority_queue_obj in
         let reference = ref initial in
         List.for_all
           (fun (origin, v) ->
             (* v < 30: extract; otherwise insert v. *)
             let op = if v < 30 then Extract_min else Insert v in
             let expected_state, expected = apply !reference op in
             reference := expected_state;
             Spine_pq.execute spine ~origin op = expected)
           script))

let prop_spine_bit_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"spine flip-bit = sequential specification"
       ~count:20
       QCheck2.Gen.(list_size (int_range 1 60) (pair (int_range 1 8) bool))
       (fun script ->
         let spine = Spine_bit.create ~n:8 () in
         let open Structures.Flip_bit in
         let reference = ref initial in
         List.for_all
           (fun (origin, flip) ->
             let op = if flip then Flip else Read in
             let expected_state, expected = apply !reference op in
             reference := expected_state;
             Spine_bit.execute spine ~origin op = expected)
           script))

module Spine_max = Structures.Retire_spine.Make (Structures.Max_register)

let test_spine_max_register_matches_reference () =
  let spine = Spine_max.create ~n:8 () in
  let open Structures.Max_register in
  let reference = ref initial in
  List.iter
    (fun (origin, v) ->
      let op = if v < 0 then Read else Write_max v in
      let st, expected = apply !reference op in
      reference := st;
      check Alcotest.int "result" expected (Spine_max.execute spine ~origin op))
    [ (1, 5); (2, 3); (3, -1); (4, 9); (5, -1); (6, 9); (7, 2); (8, -1) ];
  check Alcotest.int "final state" 9 (Spine_max.state spine)

(* The stack of docs/EXTENDING.md section 3, compiled from the document
   itself (test/dune extracts it into Extending_stack), on the spine and
   on the central server against its own specification. *)
module Stack = Extending_stack.Stack
module Central_stack = Structures.Central_object.Make (Stack)

let prop_documented_stack_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"documented stack = its specification"
       ~count:20
       QCheck2.Gen.(
         list_size (int_range 1 40) (pair (int_range 1 8) (int_range 0 99)))
       (fun script ->
         let spine = Extending_stack.Distributed_stack.create ~n:8 () in
         let central = Central_stack.create ~n:8 () in
         let reference = ref Stack.initial in
         List.for_all
           (fun (origin, v) ->
             (* v < 40: pop; otherwise push v. *)
             let op = if v < 40 then Stack.Pop else Stack.Push v in
             let expected_state, expected = Stack.apply !reference op in
             reference := expected_state;
             let a = Extending_stack.Distributed_stack.execute spine ~origin op in
             let b = Central_stack.execute central ~origin op in
             a = expected && b = expected)
           script))

let test_spine_threshold_guard () =
  match
    Spine_bit.create_with
      { Core.Retire_counter.arity = 3; depth = 3; retire_threshold = 2 }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected threshold guard"

let test_central_object_clone () =
  let c = Central_bit.create ~n:5 () in
  ignore (Central_bit.execute c ~origin:2 Structures.Flip_bit.Flip);
  let k = Central_bit.clone c in
  let a = Central_bit.execute c ~origin:3 Structures.Flip_bit.Flip in
  let b = Central_bit.execute k ~origin:3 Structures.Flip_bit.Flip in
  Alcotest.(check bool) "same result" a b;
  check Alcotest.int "independent metrics"
    (Sim.Metrics.total_messages (Central_bit.metrics c))
    (Sim.Metrics.total_messages (Central_bit.metrics k))

let test_spine_clone () =
  let spine = Spine_bit.create ~n:8 () in
  ignore (Spine_bit.execute spine ~origin:1 Structures.Flip_bit.Flip);
  let clone = Spine_bit.clone spine in
  let a = Spine_bit.execute spine ~origin:2 Structures.Flip_bit.Flip in
  let b = Spine_bit.execute clone ~origin:2 Structures.Flip_bit.Flip in
  Alcotest.(check bool) "same result" a b;
  check Alcotest.int "independent op counts" (Spine_bit.operations spine)
    (Spine_bit.operations clone)

let test_spine_rejects_bad_n () =
  match Spine_bit.create ~n:10 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* ------------------------------------------------------------------ *)
(* Central strawman *)

let test_central_object_correct_and_hot () =
  let n = 27 in
  let c = Central_bit.create ~n () in
  for i = 1 to n do
    let r = Central_bit.execute c ~origin:i Structures.Flip_bit.Flip in
    Alcotest.(check bool) "value" ((i - 1) mod 2 = 1) r
  done;
  let m = Central_bit.metrics c in
  let proc, load = Sim.Metrics.bottleneck m in
  check Alcotest.int "holder is bottleneck" 1 proc;
  check Alcotest.int "load 2(n-1)" (2 * (n - 1)) load

module Central_counter = Structures.Central_object.Make (Structures.Counter_obj)

let test_central_object_equals_central () =
  (* The central strawman over the counter object against
     Baselines.Central: same values, loads and deliveries. *)
  List.iter
    (fun n ->
      let obj = Central_counter.create ~n () in
      let base = Baselines.Central.create ~n () in
      List.iter
        (fun origin ->
          let b = Baselines.Central.inc base ~origin in
          let a = Central_counter.execute obj ~origin Structures.Counter_obj.Inc in
          check Alcotest.int "same value" b a)
        (random_origins ~n);
      check_same_run
        ~label:(Printf.sprintf "n = %d" n)
        ~expected_metrics:(Baselines.Central.metrics base)
        ~expected_traces:(Baselines.Central.traces base)
        (Central_counter.metrics obj) (Central_counter.traces obj))
    [ 8; 81; 1024 ]

let test_spine_beats_central_for_bit () =
  let n = 81 in
  let spine = Spine_bit.create ~n () in
  let central = Central_bit.create ~n () in
  for i = 1 to n do
    ignore (Spine_bit.execute spine ~origin:i Structures.Flip_bit.Flip);
    ignore (Central_bit.execute central ~origin:i Structures.Flip_bit.Flip)
  done;
  let _, bs = Sim.Metrics.bottleneck (Spine_bit.metrics spine) in
  let _, bc = Sim.Metrics.bottleneck (Central_bit.metrics central) in
  Alcotest.(check bool)
    (Printf.sprintf "spine %d < central %d" bs bc)
    true (bs * 2 < bc)

let () =
  Alcotest.run "structures"
    [
      ( "leftist-heap",
        [
          Alcotest.test_case "basics" `Quick test_heap_basics;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "extract order" `Quick test_heap_extract_order;
          Alcotest.test_case "persistence" `Quick test_heap_persistence;
          Alcotest.test_case "merge" `Quick test_heap_merge;
          prop_heap_invariants;
          prop_heap_sorts;
          prop_heap_merge_invariants;
        ] );
      ( "specifications",
        [
          Alcotest.test_case "flip-bit" `Quick test_flip_bit_spec;
          Alcotest.test_case "max-register" `Quick test_max_register_spec;
          Alcotest.test_case "priority queue" `Quick test_priority_queue_spec;
          Alcotest.test_case "counter" `Quick test_counter_spec;
        ] );
      ( "retire-spine",
        [
          Alcotest.test_case "counter instance = hand-written counter" `Quick
            test_spine_counter_equals_handwritten;
          Alcotest.test_case "flip-bit correct" `Quick test_spine_flip_bit_correct;
          Alcotest.test_case "flip-bit O(k) bottleneck" `Quick
            test_spine_flip_bit_bottleneck_o_k;
          Alcotest.test_case "flip-bit hot spot lemma" `Quick
            test_spine_hotspot_lemma_flip_bit;
          Alcotest.test_case "priority queue sequence" `Quick
            test_spine_priority_queue_sequence;
          prop_spine_pq_matches_reference;
          prop_spine_bit_matches_reference;
          Alcotest.test_case "max-register matches reference" `Quick
            test_spine_max_register_matches_reference;
          prop_documented_stack_matches_reference;
          Alcotest.test_case "threshold guard" `Quick test_spine_threshold_guard;
          Alcotest.test_case "clone" `Quick test_spine_clone;
          Alcotest.test_case "rejects bad n" `Quick test_spine_rejects_bad_n;
        ] );
      ( "central-object",
        [
          Alcotest.test_case "correct and hot" `Quick
            test_central_object_correct_and_hot;
          Alcotest.test_case "clone" `Quick test_central_object_clone;
          Alcotest.test_case "counter instance = Baselines.Central" `Quick
            test_central_object_equals_central;
          Alcotest.test_case "spine beats central" `Quick
            test_spine_beats_central_for_bit;
        ] );
    ]
