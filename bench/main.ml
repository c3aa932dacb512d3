(* The evaluation harness: regenerates every experiment of DESIGN.md /
   EXPERIMENTS.md (E1-E20) as printed tables. Per-counter wall-clock
   timings live in perf.ml's counters section.

   Usage:  dune exec bench/main.exe [-- --only E5 [--only E9 ...]]
                                    [-- --big]       (adds the k=5 column)
*)

let section title =
  Printf.printf
    "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let print_table t = Format.printf "%a@." Analysis.Table.pp t

let counter_name (module C : Counter.Counter_intf.S) = C.name

(* ------------------------------------------------------------------ *)
(* E1: Fig. 1 / Fig. 2 — the process DAG of one inc and its
   communication list. *)

let exp1_dag () =
  section
    "E1 (Fig. 1 & 2): process of a single inc on the paper's counter, k = 2";
  let module R = Core.Retire_counter in
  let c = R.create ~n:8 () in
  (* Run a few operations so the printed one includes a retirement. *)
  for i = 1 to 5 do
    ignore (R.inc c ~origin:i)
  done;
  let traces = R.traces c in
  let interesting =
    List.fold_left
      (fun best t ->
        if Sim.Trace.message_count t > Sim.Trace.message_count best then t
        else best)
      (List.hd traces) traces
  in
  Format.printf "%a@." Sim.Trace.pp interesting;
  let list = Sim.Comm_list.of_trace interesting in
  Format.printf "communication list (Fig. 2): %a@." Sim.Comm_list.pp list;
  Format.printf "list length l = %d arcs; I_p = {%s}@."
    (Sim.Comm_list.length list)
    (String.concat ", "
       (List.map string_of_int (Sim.Trace.processors interesting)))

(* ------------------------------------------------------------------ *)
(* E2: Hot Spot Lemma checked mechanically on every counter. *)

let exp2_hotspot () =
  section
    "E2 (Hot Spot Lemma): I_p of consecutive ops intersect, every counter";
  let t =
    Analysis.Table.create
      ~columns:[ "counter"; "n"; "ops"; "violations"; "verdict" ]
  in
  List.iter
    (fun c ->
      List.iter
        (fun n ->
          let r = Counter.Driver.run_each_once c ~n in
          Analysis.Table.add_row t
            [
              counter_name c;
              string_of_int r.Counter.Driver.n;
              string_of_int r.Counter.Driver.ops;
              string_of_int r.Counter.Driver.hotspot_violations;
              (if r.Counter.Driver.hotspot_ok then "holds" else "VIOLATED");
            ])
        [ 27; 81 ])
    Baselines.Registry.all;
  print_table t

(* ------------------------------------------------------------------ *)
(* E3: the Lower Bound Theorem — adversarial sequences and the weight
   function. *)

let exp3_lowerbound () =
  section "E3 (Lower Bound Theorem): adversarial each-once sequences";
  Format.printf "theory: bottleneck >= k where k*k^k = n@.%a@."
    Core.Lower_bound.pp_table
    [ 8; 81; 1024; 15625; 279936 ];
  let t =
    Analysis.Table.create
      ~columns:
        [
          "counter"; "n"; "k"; "bottleneck"; ">=k"; "avg list L"; "l_i<=L_i";
          "w monotone"; "correct";
        ]
  in
  List.iter
    (fun (c, n) ->
      let r = Core.Adversary.run ~sample:12 c ~n in
      Analysis.Table.add_row t
        [
          r.Core.Adversary.counter_name;
          string_of_int r.Core.Adversary.n;
          string_of_int r.Core.Adversary.k;
          string_of_int r.Core.Adversary.bottleneck_load;
          Analysis.Table.cell_bool r.Core.Adversary.bound_satisfied;
          Analysis.Table.cell_float r.Core.Adversary.average_list_length;
          Analysis.Table.cell_bool r.Core.Adversary.li_never_exceeds_big_li;
          Analysis.Table.cell_bool r.Core.Adversary.weights_monotone;
          Analysis.Table.cell_bool r.Core.Adversary.correct;
        ])
    [
      (Baselines.Registry.central, 27);
      (Baselines.Registry.static_tree, 8);
      (Baselines.Registry.retire_tree, 8);
      (Baselines.Registry.counting_network, 27);
      (Baselines.Registry.quorum_grid, 25);
      (Baselines.Registry.quorum_majority, 27);
    ];
  print_table t;
  (* Weight trajectory for the paper's counter at n = 8. *)
  let r = Core.Adversary.run ~sample:8 Baselines.Registry.retire_tree ~n:8 in
  Format.printf
    "weight trajectory of the distinguished processor q=p%d (base %.0f):@."
    r.Core.Adversary.q r.Core.Adversary.weight_base;
  List.iter
    (fun o -> Format.printf "  %a@." Core.Weights.pp_observation o)
    r.Core.Adversary.q_observations

(* ------------------------------------------------------------------ *)
(* E4: the Section 4 construction at its design points. *)

let exp4_upperbound ~big () =
  section "E4 (Bottleneck Theorem): the paper's counter at n = k*k^k";
  let ks = if big then [ 2; 3; 4; 5 ] else [ 2; 3; 4 ] in
  let t =
    Analysis.Table.create
      ~columns:
        [
          "k"; "n"; "messages"; "bottleneck"; "bneck/k"; "avg load";
          "retires"; "stale"; "overflow"; "believed-ok";
        ]
  in
  let runs = ref [] in
  List.iter
    (fun k ->
      let module R = Core.Retire_counter in
      let n = Core.Params.n_of_k k in
      let c = R.create ~n () in
      for i = 1 to n do
        ignore (R.inc c ~origin:i)
      done;
      let m = R.metrics c in
      let _, bottleneck = Sim.Metrics.bottleneck m in
      Analysis.Table.add_row t
        [
          string_of_int k;
          string_of_int n;
          string_of_int (Sim.Metrics.total_messages m);
          string_of_int bottleneck;
          Analysis.Table.cell_float (float_of_int bottleneck /. float_of_int k);
          Analysis.Table.cell_float (Sim.Metrics.average_load m);
          string_of_int (R.total_retirements c);
          string_of_int (R.stale_forwards c);
          string_of_int (Sim.Metrics.overflow_processors m);
          Analysis.Table.cell_bool (R.believed_consistent c);
        ];
      runs := (k, c) :: !runs)
    ks;
  print_table t;
  Format.printf
    "Number of Retirements Lemma: per-node maxima vs the paper's supply \
     k^(k-i) - 1@.";
  List.iter
    (fun (k, c) ->
      let module R = Core.Retire_counter in
      let tree = R.tree c in
      Format.printf "  k=%d:" k;
      for level = 0 to Core.Tree.depth tree do
        let measured = R.max_retirements_at_level c level in
        if level = 0 then Format.printf " L0=%d(root)" measured
        else
          Format.printf " L%d=%d(supply %d)" level measured
            (Core.Ids.capacity tree ~level - 1)
      done;
      Format.printf "@.")
    (List.rev !runs)

(* ------------------------------------------------------------------ *)
(* E5: the headline comparison — bottleneck load of every counter vs n,
   with growth-shape fits. *)

let exp5_comparison ~big () =
  section "E5 (headline): bottleneck message load vs n, all counters";
  let ns = [ 8; 81; 1024 ] @ if big then [ 15625 ] else [] in
  let t =
    Analysis.Table.create
      ~columns:
        (("counter" :: List.map (fun n -> "n=" ^ string_of_int n) ns)
        @ [ "best fit" ])
  in
  List.iter
    (fun c ->
      let points = ref [] in
      let cells =
        List.map
          (fun n ->
            let skip_large =
              (* majority/tree quorums at n=15625 cost hundreds of
                 millions of messages; skip the extended point. *)
              n > 2000
              && List.mem (counter_name c)
                   [ "quorum-majority"; "quorum-tree"; "quorum-crumbling-wall" ]
            in
            if skip_large then "-"
            else begin
              let r = Counter.Driver.run_each_once c ~n in
              points :=
                ( float_of_int r.Counter.Driver.n,
                  float_of_int r.Counter.Driver.bottleneck_load )
                :: !points;
              string_of_int r.Counter.Driver.bottleneck_load
            end)
          ns
      in
      let fit_cell =
        match !points with
        | _ :: _ :: _ ->
            let best, _ = Analysis.Growth.best_fit (List.rev !points) in
            Printf.sprintf "%s (c=%.1f)"
              (Analysis.Growth.shape_name best.Analysis.Growth.shape)
              best.Analysis.Growth.scale
        | _ -> "-"
      in
      Analysis.Table.add_row t ((counter_name c :: cells) @ [ fit_cell ]))
    Baselines.Registry.all;
  print_table t;
  Format.printf
    "(expected: retire-tree ~ k(n); counting-net ~ n/width; grid ~ sqrt n; \
     central/static/combining/majority/tree ~ n)@."

(* ------------------------------------------------------------------ *)
(* E6: load distribution — "does not scale" made visible. *)

let exp6_distribution () =
  section
    "E6 (scaling claim): load distribution, central vs the paper's counter";
  let n = 1024 in
  List.iter
    (fun c ->
      let profile =
        Counter.Driver.load_profile c ~n ~schedule:Counter.Schedule.Each_once
      in
      let loads = Array.sub profile 1 (Array.length profile - 1) in
      let s = Analysis.Stats.summarize loads in
      Format.printf "%s at n=%d: %a@.  gini=%.3f@." (counter_name c) n
        Analysis.Stats.pp_summary s
        (Analysis.Stats.gini loads);
      Format.printf "%a@."
        (Analysis.Histogram.pp ~bar_width:44)
        (Analysis.Histogram.of_samples ~buckets:10 loads))
    [ Baselines.Registry.central; Baselines.Registry.retire_tree ]

(* ------------------------------------------------------------------ *)
(* E7: counting networks — step property and balancer load profile. *)

let exp7_network () =
  section "E7 (related work): counting network profiles (bitonic vs periodic)";
  let t =
    Analysis.Table.create
      ~columns:
        [ "network"; "width"; "depth"; "balancers"; "msgs/op"; "bottleneck";
          "step-property" ]
  in
  let n = 256 in
  let profile kind c =
      for i = 1 to n do
        ignore (Baselines.Counting_network.inc c ~origin:i)
      done;
      let m = Baselines.Counting_network.metrics c in
      let _, bottleneck = Sim.Metrics.bottleneck m in
      Analysis.Table.add_row t
        [
          kind;
          string_of_int (Baselines.Counting_network.width c);
          string_of_int (Baselines.Counting_network.network_depth c);
          string_of_int (Baselines.Counting_network.balancer_count c);
          Analysis.Table.cell_float
            (float_of_int (Sim.Metrics.total_messages m) /. float_of_int n);
          string_of_int bottleneck;
          Analysis.Table.cell_bool
            (Baselines.Counting_network.step_property_held c);
        ]
  in
  List.iter
    (fun width ->
      profile "bitonic" (Baselines.Counting_network.create_width ~n ~width ());
      profile "periodic"
        (Baselines.Counting_network.create_custom ~n
           ~network:(Baselines.Periodic.build ~width)
           ()))
    [ 2; 4; 8; 16; 32 ];
  print_table t;
  Format.printf
    "(wider network: more msgs/op [depth grows as lg^2 w] but lower \
     bottleneck [n/w per balancer])@."

(* ------------------------------------------------------------------ *)
(* E8: quorum systems — load and probe complexity. *)

let exp8_quorum () =
  section "E8 (related work): quorum-system load and probe complexity";
  let systems : Quorum.Quorum_intf.system list =
    [
      (module Quorum.Majority);
      (module Quorum.Grid);
      (module Quorum.Tree_quorum);
      (module Quorum.Crumbling_wall);
      (module Quorum.Projective_plane);
    ]
  in
  let t =
    Analysis.Table.create
      ~columns:
        [
          "system"; "n"; "|Q| mean"; "load"; "probes @5%"; "success @5%";
          "probes @25%"; "success @25%";
        ]
  in
  List.iter
    (fun ((module Q : Quorum.Quorum_intf.S) as q) ->
      let n = Q.supported_n 100 in
      let profile = Quorum.Load.measure q ~n () in
      let p5, s5 =
        Quorum.Probe.expected_probes q ~n ~fraction:0.05 ~trials:200 ~seed:1
      in
      let p25, s25 =
        Quorum.Probe.expected_probes q ~n ~fraction:0.25 ~trials:200 ~seed:2
      in
      Analysis.Table.add_row t
        [
          Q.name;
          string_of_int n;
          Analysis.Table.cell_float profile.Quorum.Load.quorum_size_mean;
          Analysis.Table.cell_float ~decimals:3 profile.Quorum.Load.load;
          Analysis.Table.cell_float p5;
          Analysis.Table.cell_float ~decimals:2 s5;
          Analysis.Table.cell_float p25;
          Analysis.Table.cell_float ~decimals:2 s25;
        ])
    systems;
  print_table t;
  Format.printf
    "(tree quorums: smallest quorums but load 1.0 at the root — the \
     quorum-world hot spot)@."

(* ------------------------------------------------------------------ *)
(* E9: ablation — the retirement threshold. *)

let exp9_ablation () =
  section "E9 (ablation): retirement threshold c*k on the k=4 tree (n=1024)";
  let k = 4 in
  let n = Core.Params.n_of_k k in
  let t =
    Analysis.Table.create
      ~columns:
        [
          "threshold"; "bottleneck"; "messages"; "retirements"; "overflow";
          "max interval excess";
        ]
  in
  List.iter
    (fun (label, threshold) ->
      let module R = Core.Retire_counter in
      let c =
        R.create_with { (R.paper_config ~k) with retire_threshold = threshold }
      in
      for i = 1 to n do
        ignore (R.inc c ~origin:i)
      done;
      let m = R.metrics c in
      let _, bottleneck = Sim.Metrics.bottleneck m in
      let tree = R.tree c in
      let excess =
        List.fold_left
          (fun acc level ->
            let supply = Core.Ids.capacity tree ~level - 1 in
            let measured = R.max_retirements_at_level c level in
            max acc (measured - supply))
          0
          (List.init (Core.Tree.depth tree) (fun i -> i + 1))
      in
      Analysis.Table.add_row t
        [
          label;
          string_of_int bottleneck;
          string_of_int (Sim.Metrics.total_messages m);
          string_of_int (R.total_retirements c);
          string_of_int (Sim.Metrics.overflow_processors m);
          string_of_int excess;
        ])
    [
      ("2k (paper)", 2 * k);
      ("3k", 3 * k);
      ("4k", 4 * k);
      ("8k", 8 * k);
      ("infinite (static)", max_int);
    ];
  print_table t;
  Format.printf
    "(low threshold: flat load but heavy retirement traffic and interval \
     overflow; infinite threshold degenerates to the Theta(n) static tree)@."

(* ------------------------------------------------------------------ *)
(* E10: ablation — tree shape at fixed n = 1024. *)

let exp10_arity () =
  section "E10 (ablation): tree shape at n = 1024 (paper: arity = depth = k)";
  let t =
    Analysis.Table.create
      ~columns:
        [ "arity"; "depth"; "bottleneck"; "messages"; "retirements"; "note" ]
  in
  List.iter
    (fun (arity, depth, note) ->
      let module R = Core.Retire_counter in
      let cfg =
        { R.arity; depth; retire_threshold = max (2 * arity) (arity + 2) }
      in
      let n = R.config_n cfg in
      assert (n = 1024);
      let c = R.create_with cfg in
      for i = 1 to n do
        ignore (R.inc c ~origin:i)
      done;
      let m = R.metrics c in
      let _, bottleneck = Sim.Metrics.bottleneck m in
      Analysis.Table.add_row t
        [
          string_of_int arity;
          string_of_int depth;
          string_of_int bottleneck;
          string_of_int (Sim.Metrics.total_messages m);
          string_of_int (R.total_retirements c);
          note;
        ])
    [
      (2, 9, "deep binary");
      (4, 4, "paper's k=4");
      (32, 1, "flat two-level");
      (1024, 0, "root only (~central)");
    ];
  print_table t

(* ------------------------------------------------------------------ *)
(* E11: concurrency — combining and diffraction under batches. *)

let exp11_concurrent () =
  section "E11 (extension): combining & diffracting trees under concurrency";
  let n = 64 in
  let t =
    Analysis.Table.create
      ~columns:
        [
          "batch"; "comb root msgs/op"; "comb rate"; "diff root msgs/op";
          "diffractions"; "toggle hits";
        ]
  in
  List.iter
    (fun batch ->
      let ct = Baselines.Combining_tree.create ~n () in
      let batches = n / batch in
      for b = 0 to batches - 1 do
        let origins = List.init batch (fun i -> (b * batch) + i + 1) in
        ignore (Baselines.Combining_tree.run_batch ct ~origins)
      done;
      let comb_root =
        float_of_int (Sim.Metrics.load (Baselines.Combining_tree.metrics ct) 1)
        /. float_of_int n
      in
      let dt = Baselines.Diffracting_tree.create_width ~n ~width:8 () in
      for b = 0 to batches - 1 do
        let origins = List.init batch (fun i -> (b * batch) + i + 1) in
        ignore (Baselines.Diffracting_tree.run_batch dt ~origins)
      done;
      let diff_root =
        float_of_int
          (Sim.Metrics.load (Baselines.Diffracting_tree.metrics dt) 1)
        /. float_of_int n
      in
      Analysis.Table.add_row t
        [
          string_of_int batch;
          Analysis.Table.cell_float comb_root;
          Analysis.Table.cell_float (Baselines.Combining_tree.combining_rate ct);
          Analysis.Table.cell_float diff_root;
          string_of_int (Baselines.Diffracting_tree.diffractions dt);
          string_of_int (Baselines.Diffracting_tree.toggle_hits dt);
        ])
    [ 1; 4; 16; 64 ];
  print_table t;
  Format.printf
    "(bigger batches: combining absorbs requests below the root; prisms \
     divert tokens from the toggles)@."

(* ------------------------------------------------------------------ *)
(* E12: the generalisation — any sequential object on the retirement
   spine. *)

let exp12_structures () =
  section
    "E12 (generalisation): flip-bit, max-register, priority-queue on the \
     retirement spine vs a central server";
  let n = 81 in
  let t =
    Analysis.Table.create
      ~columns:
        [
          "object"; "impl"; "messages"; "bottleneck"; "correct vs spec";
          "hotspot";
        ]
  in
  (* Operation [op i] from processor [i], for i = 1..n, on the spine (and
     on the central server if [central]), checked against the object's
     specification: one row per implementation. *)
  let rows (type o)
      (module O : Core.Sequential_object.OBJECT with type operation = o)
      ~(op : int -> o) ~central =
    let check execute =
      let reference = ref O.initial and ok = ref true in
      for i = 1 to n do
        let st, expected = O.apply !reference (op i) in
        reference := st;
        if execute ~origin:i (op i) <> expected then ok := false
      done;
      !ok
    in
    let row impl ~correct metrics traces =
      Analysis.Table.add_row t
        [
          O.name;
          impl;
          string_of_int (Sim.Metrics.total_messages metrics);
          string_of_int (snd (Sim.Metrics.bottleneck metrics));
          Analysis.Table.cell_bool correct;
          Analysis.Table.cell_bool (Counter.Hotspot.holds traces);
        ]
    in
    let module Spine = Structures.Retire_spine.Make (O) in
    let spine = Spine.create ~n () in
    let correct = check (Spine.execute spine) in
    row "retire-spine" ~correct (Spine.metrics spine) (Spine.traces spine);
    if central then begin
      let module Central = Structures.Central_object.Make (O) in
      let server = Central.create ~n () in
      let correct = check (Central.execute server) in
      row "central" ~correct (Central.metrics server) (Central.traces server)
    end
  in
  rows
    (module Structures.Flip_bit)
    ~op:(fun _ -> Structures.Flip_bit.Flip)
    ~central:true;
  rows
    (module Structures.Max_register)
    ~op:(fun i -> Structures.Max_register.Write_max ((i * 37) mod 100))
    ~central:false;
  rows
    (module Structures.Priority_queue_obj)
    ~op:(fun i ->
      if i mod 3 = 0 then Structures.Priority_queue_obj.Extract_min
      else Structures.Priority_queue_obj.Insert ((i * 53) mod 200))
    ~central:false;
  print_table t;
  Format.printf
    "(Section 2's remark, realised: any operation-depends-on-predecessor \
     object gets the O(k) bottleneck from the same machinery)@."

(* ------------------------------------------------------------------ *)
(* E13: message lengths — the paper's O(log n) bits claim. *)

let exp13_message_bits ~big () =
  section "E13 (message length): largest message vs n (paper: O(log n) bits)";
  let ks = if big then [ 2; 3; 4; 5 ] else [ 2; 3; 4 ] in
  let t =
    Analysis.Table.create
      ~columns:
        [ "k"; "n"; "log2 n"; "max msg bits"; "mean msg bits"; "bits/log2n" ]
  in
  List.iter
    (fun k ->
      let module R = Core.Retire_counter in
      let n = Core.Params.n_of_k k in
      let c = R.create ~n () in
      for i = 1 to n do
        ignore (R.inc c ~origin:i)
      done;
      let messages = Sim.Metrics.total_messages (R.metrics c) in
      let log2n = log (float_of_int n) /. log 2. in
      let max_bits = R.max_message_bits c in
      Analysis.Table.add_row t
        [
          string_of_int k;
          string_of_int n;
          Analysis.Table.cell_float log2n;
          string_of_int max_bits;
          Analysis.Table.cell_float
            (float_of_int (R.total_bits c) /. float_of_int messages);
          Analysis.Table.cell_float (float_of_int max_bits /. log2n);
        ])
    ks;
  print_table t;
  Format.printf
    "(the bits/log2n column converging to a constant ~3 is the O(log n) \
     claim: every message carries at most a few identifiers)@."

(* ------------------------------------------------------------------ *)
(* E14: the price of flatness — operation latency. *)

let exp14_latency () =
  section
    "E14 (latency): virtual-time cost per op (unit delays) — flat load is \
     bought with tree depth";
  let t =
    Analysis.Table.create
      ~columns:
        [ "counter"; "n"; "mean latency"; "max latency"; "bottleneck" ]
  in
  List.iter
    (fun c ->
      let r = Counter.Driver.run_each_once c ~n:81 in
      Analysis.Table.add_row t
        [
          counter_name c;
          string_of_int r.Counter.Driver.n;
          Analysis.Table.cell_float r.Counter.Driver.mean_op_latency;
          Analysis.Table.cell_float r.Counter.Driver.max_op_latency;
          string_of_int r.Counter.Driver.bottleneck_load;
        ])
    Baselines.Registry.all;
  print_table t;
  Format.printf
    "(central answers in 2 time units but melts one processor; the paper's \
     counter pays ~k+2 units — the message-load/latency trade-off)@."

(* ------------------------------------------------------------------ *)
(* E15: how far does the construction stretch beyond the paper's
   sequential model? Concurrent batches on the retirement tree. *)

let exp15_concurrency () =
  section
    "E15 (model boundary): the retirement tree under concurrent batches \
     (the paper assumes sequential ops)";
  let module R = Core.Retire_counter in
  let n = 1024 in
  let t =
    Analysis.Table.create
      ~columns:
        [ "batch"; "bottleneck"; "messages"; "msgs/op"; "values ok" ]
  in
  List.iter
    (fun batch ->
      let c = R.create ~n () in
      let all = ref [] in
      for i = 0 to (n / batch) - 1 do
        let origins = List.init batch (fun j -> (i * batch) + j + 1) in
        all := List.map snd (R.run_batch c ~origins) @ !all
      done;
      let ok = List.sort compare !all = List.init n Fun.id in
      let m = R.metrics c in
      let _, bottleneck = Sim.Metrics.bottleneck m in
      Analysis.Table.add_row t
        [
          string_of_int batch;
          string_of_int bottleneck;
          string_of_int (Sim.Metrics.total_messages m);
          Analysis.Table.cell_float
            (float_of_int (Sim.Metrics.total_messages m) /. float_of_int n);
          Analysis.Table.cell_bool ok;
        ])
    [ 1; 8; 64; 256; 1024 ];
  print_table t;
  Format.printf
    "(values stay exact at any concurrency, but the O(k) bottleneck needs \
     the sequential model: with b concurrent requests the retirement \
     announcements race the request flood and stale traffic piles onto \
     recent workers — combining (E11) is the established fix)@."

(* ------------------------------------------------------------------ *)
(* E16: long-lived counting — m rounds of each-processor-once. *)

let exp16_long_lived () =
  section
    "E16 (long-lived counting): m rounds of each-processor-once at n = 81";
  let module R = Core.Retire_counter in
  let n = 81 in
  let t =
    Analysis.Table.create
      ~columns:
        [
          "rounds"; "ops"; "bottleneck"; "bneck/round"; "overflow hires";
          "retirements";
        ]
  in
  List.iter
    (fun rounds ->
      let c = R.create ~n () in
      for _ = 1 to rounds do
        for i = 1 to n do
          ignore (R.inc c ~origin:i)
        done
      done;
      let m = R.metrics c in
      let _, bottleneck = Sim.Metrics.bottleneck m in
      Analysis.Table.add_row t
        [
          string_of_int rounds;
          string_of_int (rounds * n);
          string_of_int bottleneck;
          Analysis.Table.cell_float
            (float_of_int bottleneck /. float_of_int rounds);
          string_of_int (Sim.Metrics.overflow_processors m);
          string_of_int (R.total_retirements c);
        ])
    [ 1; 2; 4; 8; 16 ];
  print_table t;
  Format.printf
    "(the paper sizes replacement intervals for exactly one round; across m \
     rounds retirement keeps amortising — the bottleneck grows only \
     additively (~4 per extra round, the per-round leaf traffic) with \
     replacements drawn from the overflow pool)@."

(* ------------------------------------------------------------------ *)
(* E17: robustness — the headline numbers across seeds and delay
   models, replicated in parallel across domains. *)

let exp17_robustness () =
  section
    "E17 (robustness): bottleneck across 10 seeds x 3 delay models, n = 81 \
     (mean +- 95% CI; runs parallelised over domains)";
  let seeds = List.init 10 (fun i -> 100 + i) in
  let t =
    Analysis.Table.create
      ~columns:[ "counter"; "delay"; "bottleneck (mean +- ci)"; "sd" ]
  in
  let delays =
    [
      Sim.Delay.Constant 1.0;
      Sim.Delay.Exponential 1.0;
      Sim.Delay.Adversarial_jitter 0.5;
    ]
  in
  List.iter
    (fun c ->
      List.iter
        (fun delay ->
          let summary =
            Analysis.Replicate.across_seeds_parallel ~seeds (fun seed ->
                let r =
                  Counter.Driver.run ~seed ~delay c ~n:81
                    ~schedule:Counter.Schedule.Each_once_shuffled
                in
                assert
                  (r.Counter.Driver.values_exact
                  && r.Counter.Driver.sequentially_ordered);
                float_of_int r.Counter.Driver.bottleneck_load)
          in
          Analysis.Table.add_row t
            [
              counter_name c;
              Format.asprintf "%a" Sim.Delay.pp delay;
              Printf.sprintf "%.1f +- %.1f" summary.Analysis.Replicate.mean
                summary.Analysis.Replicate.ci95;
              Analysis.Table.cell_float summary.Analysis.Replicate.stddev;
            ])
        delays)
    [
      Baselines.Registry.retire_tree;
      Baselines.Registry.central;
      Baselines.Registry.counting_network;
      Baselines.Registry.quorum_grid;
    ];
  print_table t;
  Format.printf
    "(the bounds are about message counts, so the delay model moves the \
     numbers by at most a few percent — the paper's theorems are \
     delay-free and so are the measurements)@."

(* ------------------------------------------------------------------ *)
(* E18: fidelity — shared-state simulation vs strictly processor-local
   protocol. *)

let exp18_fidelity () =
  section
    "E18 (fidelity): shared-state Retire_counter vs strictly \
     processor-local Retire_local";
  let t =
    Analysis.Table.create
      ~columns:
        [
          "k"; "n"; "impl"; "messages"; "bottleneck"; "stale fwd";
          "buffered"; "identical";
        ]
  in
  List.iter
    (fun k ->
      let n = Core.Params.n_of_k k in
      let r = Core.Retire_counter.create ~n () in
      let l = Core.Retire_local.create ~n () in
      for i = 1 to n do
        ignore (Core.Retire_counter.inc r ~origin:i);
        ignore (Core.Retire_local.inc l ~origin:i)
      done;
      let mr = Core.Retire_counter.metrics r in
      let ml = Core.Retire_local.metrics l in
      let identical =
        Sim.Metrics.total_messages mr = Sim.Metrics.total_messages ml
        && snd (Sim.Metrics.bottleneck mr) = snd (Sim.Metrics.bottleneck ml)
      in
      Analysis.Table.add_row t
        [
          string_of_int k;
          string_of_int n;
          "shared-state";
          string_of_int (Sim.Metrics.total_messages mr);
          string_of_int (snd (Sim.Metrics.bottleneck mr));
          string_of_int (Core.Retire_counter.stale_forwards r);
          "-";
          Analysis.Table.cell_bool identical;
        ];
      Analysis.Table.add_row t
        [
          string_of_int k;
          string_of_int n;
          "processor-local";
          string_of_int (Sim.Metrics.total_messages ml);
          string_of_int (snd (Sim.Metrics.bottleneck ml));
          string_of_int (Core.Retire_local.stale_forwards l);
          string_of_int (Core.Retire_local.buffered_messages l);
          Analysis.Table.cell_bool identical;
        ])
    [ 2; 3; 4 ];
  print_table t;
  (* Under heavy jitter the handshake races become visible. *)
  let l =
    Core.Retire_local.create ~delay:(Sim.Delay.Adversarial_jitter 0.5) ~n:1024 ()
  in
  for i = 1 to 1024 do
    ignore (Core.Retire_local.inc l ~origin:i)
  done;
  Format.printf
    "under jitter delays (n=1024): %d messages, %d buffered by the \
     handshake, %d stale-forward hops — still every value exact@."
    (Sim.Metrics.total_messages (Core.Retire_local.metrics l))
    (Core.Retire_local.buffered_messages l)
    (Core.Retire_local.stale_forwards l)

(* ------------------------------------------------------------------ *)
(* E19: exhaustive verification at k = 2 — every operation order. *)

let exp19_exhaustive () =
  section
    "E19 (exhaustive): ALL 8! = 40320 each-once orders at n = 8 (k = 2)";
  let t =
    Analysis.Table.create
      ~columns:
        [
          "counter"; "orders"; "correct"; "hotspot"; "m_b>=k";
          "bottleneck range"; "messages range";
        ]
  in
  List.iter
    (fun c ->
      let s = Core.Exhaustive.verify_counter c ~n:8 in
      Analysis.Table.add_row t
        [
          counter_name c;
          string_of_int s.Core.Exhaustive.orders;
          Analysis.Table.cell_bool s.Core.Exhaustive.all_correct;
          Analysis.Table.cell_bool s.Core.Exhaustive.all_hotspot;
          Analysis.Table.cell_bool s.Core.Exhaustive.all_bound;
          Printf.sprintf "%d..%d" s.Core.Exhaustive.min_bottleneck
            s.Core.Exhaustive.max_bottleneck;
          Printf.sprintf "%d..%d" s.Core.Exhaustive.min_messages
            s.Core.Exhaustive.max_messages;
        ])
    [
      Baselines.Registry.retire_tree;
      Baselines.Registry.central;
      Baselines.Registry.counting_network;
    ];
  print_table t;
  Format.printf
    "(not sampling: every possible each-once schedule at this size — the \
     lower bound m_b >= k holds on all of them, and even the best-case \
     order cannot push the retirement tree's bottleneck below the range \
     shown)@."

(* ------------------------------------------------------------------ *)
(* E20: linearizability under overlap — the HSW phenomenon, live. *)

let exp20_linearizability () =
  section
    "E20 (related work, HSW): linearizability under overlapping \
     operations (staggered injection, exponential delays)";
  let t =
    Analysis.Table.create
      ~columns:
        [
          "counter"; "stagger"; "peak overlap"; "contiguous";
          "linearizable (10 seeds)";
        ]
  in
  let seeds = List.init 10 (fun i -> i + 1) in
  let run_counting stagger seed =
    let c =
      Baselines.Counting_network.create_width ~n:64 ~width:8
        ~delay:(Sim.Delay.Exponential 1.0) ~seed ()
    in
    Baselines.Counting_network.run_batch_timed c ~stagger
      ~origins:(List.init 64 (fun i -> i + 1))
      ()
  in
  let run_retire stagger seed =
    let c =
      Core.Retire_counter.create ~n:81 ~delay:(Sim.Delay.Exponential 1.0)
        ~seed ()
    in
    Core.Retire_counter.run_batch_timed c ~stagger
      ~origins:(List.init 81 (fun i -> i + 1))
      ()
  in
  let row name run stagger =
    let histories = List.map (run stagger) seeds in
    let linearizable =
      List.length (List.filter Counter.History.is_linearizable histories)
    in
    let contiguous =
      List.for_all Counter.History.values_contiguous histories
    in
    let peak =
      List.fold_left
        (fun acc h -> max acc (Counter.History.concurrency_profile h))
        0 histories
    in
    Analysis.Table.add_row t
      [
        name;
        Analysis.Table.cell_float ~decimals:1 stagger;
        string_of_int peak;
        Analysis.Table.cell_bool contiguous;
        Printf.sprintf "%d/10" linearizable;
      ]
  in
  List.iter
    (fun stagger ->
      row "counting-net" run_counting stagger;
      row "retire-tree" run_retire stagger)
    [ 0.25; 0.5; 1.0; 4.0 ];
  print_table t;
  (* Exhibit one concrete violation. *)
  let h = run_counting 0.5 5 in
  (match Counter.History.check h with
  | Counter.History.Violation (a, b) ->
      Format.printf "a concrete violation (seed 5, stagger 0.5): %a, yet %a@."
        Counter.History.pp_op a Counter.History.pp_op b
  | Counter.History.Linearizable -> ());
  Format.printf
    "(counting networks hand out values in token-arrival order at the \
     output wires, which real-time order does not respect — the reason \
     Herlihy-Shavit-Waarts built linearizable variants; the paper's \
     counter serialises at the root, so real-time order is preserved and \
     every history is linearizable)@."

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let big = List.mem "--big" args in
  let only =
    let rec collect = function
      | "--only" :: e :: rest -> String.uppercase_ascii e :: collect rest
      | _ :: rest -> collect rest
      | [] -> []
    in
    collect args
  in
  let want name = only = [] || List.mem name only in
  Printf.printf
    "Reproduction harness: Wattenhofer & Widmayer, 'An Inherent Bottleneck \
     in Distributed Counting' (PODC 1997)\n";
  if want "E1" then exp1_dag ();
  if want "E2" then exp2_hotspot ();
  if want "E3" then exp3_lowerbound ();
  if want "E4" then exp4_upperbound ~big ();
  if want "E5" then exp5_comparison ~big ();
  if want "E6" then exp6_distribution ();
  if want "E7" then exp7_network ();
  if want "E8" then exp8_quorum ();
  if want "E9" then exp9_ablation ();
  if want "E10" then exp10_arity ();
  if want "E11" then exp11_concurrent ();
  if want "E12" then exp12_structures ();
  if want "E13" then exp13_message_bits ~big ();
  if want "E14" then exp14_latency ();
  if want "E15" then exp15_concurrency ();
  if want "E16" then exp16_long_lived ();
  if want "E17" then exp17_robustness ();
  if want "E18" then exp18_fidelity ();
  if want "E19" then exp19_exhaustive ();
  if want "E20" then exp20_linearizability ()
