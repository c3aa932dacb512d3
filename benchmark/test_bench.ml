(* The benchmark times the same program the CLI runs: every smoke-size
   cell's step-by-step run equals the library's own entry point. Its
   contract checks have teeth: broken counters, a false linearizability
   claim, a Storm and an untyped exception all count as failures, and the
   run carries on. *)

open Benchkit

let check = Alcotest.check

let smoke_cells () =
  List.concat_map
    (fun name ->
      (Option.get (Workloads.find name ~smoke:true ~seed:42)).Workloads.cells)
    Workloads.names

let plan_of text =
  match Sim.Fault.of_string text with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let test_closed_matches_driver () =
  let seen = ref 0 in
  List.iter
    (function
      | Cells.Closed s ->
          incr seen;
          let o, _, _, _, _, _ = Cells.closed_steps ~traced:false s in
          let r =
            Counter.Driver.run ~seed:s.seed ~delay:s.delay
              ~faults:(plan_of s.faults) s.counter ~n:s.n ~schedule:s.schedule
          in
          let name = Cells.closed_plan s in
          let m = o.metrics in
          check
            Alcotest.(array int)
            (name ^ " values") r.values
            (Array.of_seq
               (Seq.filter_map Counter.Counter_intf.outcome_value
                  (Array.to_seq o.outcomes)));
          check Alcotest.int (name ^ " messages") r.total_messages
            (Sim.Metrics.total_messages m);
          check Alcotest.int (name ^ " bottleneck") r.bottleneck_load
            (snd (Sim.Metrics.bottleneck m));
          check Alcotest.int (name ^ " hotspot") r.hotspot_violations
            (List.length o.hotspot_violations);
          check Alcotest.int (name ^ " stalled") r.stalled
            (Cells.stalls o.outcomes)
      | Cells.Open _ | Cells.Mc _ -> ())
    (smoke_cells ());
  check Alcotest.bool "closed cells compared" true (!seen > 10)

let test_open_matches_run_load () =
  List.iter
    (function
      | Cells.Open s ->
          let o, _, _, _, _, _ = Cells.open_steps ~traced:false s in
          let r =
            Counter.Driver.run_load ~seed:s.seed ~delay:s.delay s.counter
              ~n:s.n ~arrivals:s.arrivals ~ops:s.ops
          in
          let name = Cells.open_plan s in
          check Alcotest.int (name ^ " completed") r.completed
            (List.length o.history);
          check Alcotest.bool (name ^ " latency") true (r.latency = o.latency);
          check Alcotest.bool (name ^ " analysis") true
            (r.analysis = o.analysis);
          check Alcotest.int (name ^ " messages") r.total_messages
            (Sim.Metrics.total_messages o.metrics)
      | Cells.Closed _ | Cells.Mc _ -> ())
    (smoke_cells ())

let test_mc_matches_explore () =
  List.iter
    (function
      | Cells.Mc s ->
          let tally = Cells.new_tally () in
          let observed = Cells.observe s.counter tally in
          let (module O : Cells.OBSERVED) = observed in
          let mine, _, _, _ =
            Cells.mc_steps s ~counter:(module O : Counter.Counter_intf.S)
          in
          let theirs =
            Mc.Explore.check ~seed:s.seed ~faults:(plan_of s.faults)
              ~config:s.config s.counter ~n:s.n
              ~schedule:
                (Result.get_ok (Counter.Schedule.of_string s.schedule))
          in
          let name = Cells.mc_plan s in
          check Alcotest.string (name ^ " verdict")
            (Cells.verdict_string theirs.verdict)
            (Cells.verdict_string mine.verdict);
          check Alcotest.bool (name ^ " stats") true
            (theirs.stats = mine.stats);
          check Alcotest.bool (name ^ " one counter per execution") true
            (tally.executions >= mine.stats.executions)
      | Cells.Closed _ | Cells.Open _ -> ())
    (smoke_cells ())

(* Negative controls: each must make the run report failures. *)

let run_cells cells =
  Harness.run
    ~workload:{ Workloads.name = "control"; cells; probe_n = 16 }
    ~seed:42 ~seconds:0. ~trace:false ~smoke:true

let closed ?(guarantee = Cells.Exact) counter n =
  Cells.Closed
    {
      counter;
      n;
      schedule = Counter.Schedule.Each_once_shuffled;
      delay = Sim.Delay.Constant 1.0;
      faults = "none";
      seed = 42;
      guarantee;
    }

let test_amnesiac_fails () =
  let r = run_cells [ closed Baselines.Registry.amnesiac 16 ] in
  check Alcotest.bool "not correct" false r.correct;
  check Alcotest.bool "failed_ratio > 0" true (r.failed > 0)

let counting_net ~linearizable =
  Cells.Open
    {
      counter = Workloads.concurrent "counting-net";
      n = 64;
      arrivals = Sim.Arrivals.Poisson 0.05;
      ops = 1_000;
      delay = Sim.Delay.Exponential 1.0;
      seed = 42;
      linearizable;
    }

let test_counting_net_not_linearizable () =
  let claimed = run_cells [ counting_net ~linearizable:true ] in
  check Alcotest.bool "claimed: failed_ratio > 0" true (claimed.failed > 0);
  let unclaimed = run_cells [ counting_net ~linearizable:false ] in
  check Alcotest.int "quiescently consistent: no failure" 0 unclaimed.failed

(* The central counter with an [inc] that raises. *)
let raising label exn : Counter.Counter_intf.counter =
  (module struct
    include Baselines.Central

    let name = label
    let inc _ ~origin:_ = raise exn
    let inc_result _ ~origin:_ = raise exn
  end)

let test_raising_cells_fail_and_run_continues () =
  let stormy =
    raising "stormy"
      (Sim.Network.Storm
         { max_steps = 1; pending = 1; now = 0.; deliveries = 0 })
  in
  let broken = raising "broken" (Failure "untyped") in
  let r =
    run_cells
      [ closed stormy 8; closed broken 8; closed Baselines.Registry.central 8 ]
  in
  check Alcotest.int "both raising cells failed as a whole" 16 r.failed;
  check Alcotest.int "the good cell still ran" 24 r.attempted;
  match Analysis.Json.member "checks" r.doc with
  | Some (Analysis.Json.List [ _; _; last ]) ->
      check Alcotest.bool "last cell ok" true
        (Analysis.Json.member "ok" last = Some (Analysis.Json.Bool true))
  | _ -> Alcotest.fail "expected three checks"

(* Compare: the quartiles the acceptance rule uses, and the verdicts. *)

let test_quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) and ([1, 2, 3, 4, 5], n=4) *)
  let q = Compare.quartiles (List.init 10 (fun i -> float (i + 1))) in
  check Alcotest.bool "1..10" true (q = (2.75, 5.5, 8.25));
  let q = Compare.quartiles [ 5.; 3.; 1.; 4.; 2. ] in
  check Alcotest.bool "1..5" true (q = (1.5, 3., 4.5))

let test_verdicts () =
  let m =
    { Compare.name = "wall_s"; unit = "s"; better = "lower"; bound = 0.1 }
  in
  let verdict base fresh = (Compare.row m ~workload:"w" base fresh).verdict in
  let tight = [ 1.0; 1.01; 0.99; 1.0; 1.02 ] in
  check Alcotest.string "same" "ok" (verdict tight tight);
  check Alcotest.string "slower" "regressed"
    (verdict tight (List.map (fun x -> x *. 1.3) tight));
  check Alcotest.string "faster" "ok"
    (verdict tight (List.map (fun x -> x *. 0.7) tight));
  let wide = [ 1.0; 2.0; 1.5; 0.8; 1.9 ] in
  check Alcotest.string "too noisy to call" "unresolved"
    (verdict wide (List.map (fun x -> x *. 1.05) wide));
  check Alcotest.string "noisy but every run better" "ok"
    (verdict wide (List.map (fun x -> x /. 10.) wide))

let () =
  Alcotest.run "bench"
    [
      ( "differential",
        [
          Alcotest.test_case "closed cells = Driver.run" `Quick
            test_closed_matches_driver;
          Alcotest.test_case "open cells = Driver.run_load" `Quick
            test_open_matches_run_load;
          Alcotest.test_case "mc cells = Explore.check" `Quick
            test_mc_matches_explore;
        ] );
      ( "negative controls",
        [
          Alcotest.test_case "amnesiac" `Quick test_amnesiac_fails;
          Alcotest.test_case "counting-net claimed linearizable" `Quick
            test_counting_net_not_linearizable;
          Alcotest.test_case "Storm and untyped exception" `Quick
            test_raising_cells_fail_and_run_continues;
        ] );
      ( "compare",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles_match_python;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
        ] );
    ]
