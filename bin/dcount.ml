(* dcount — command-line driver for the distributed-counting testbed.

   Subcommands:
     list        available counters and quorum systems
     run         execute a schedule against one counter, print the report
     load        open-loop concurrent load run with linearizability verdicts
     chaos       sweep crash/drop rates, report completion and load shift
     compare     bottleneck comparison table across counters and sizes
     adversary   run the lower-bound adversary against a counter
     trace       print the process DAG of the first operations
     quorum      load profile and probe complexity of a quorum system
     bound       print n -> k of the Lower Bound Theorem *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument definitions *)

let counter_conv =
  let parse s =
    match Baselines.Registry.find s with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown counter %S (try: %s)" s
               (String.concat ", " (Baselines.Registry.names ()))))
  in
  let print ppf (module C : Counter.Counter_intf.S) =
    Format.pp_print_string ppf C.name
  in
  Arg.conv (parse, print)

let delay_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Sim.Delay.of_string s) in
  Arg.conv (parse, Sim.Delay.pp)

let fault_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Sim.Fault.of_string s) in
  Arg.conv (parse, Sim.Fault.pp)

let faults_arg =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault plan: clauses crash:P@T, crash:P@#D, \
           recover:P@T, drop:F, drop:S,D:F, dup:F, part:LO-HI@T0,T1, \
           the store-RPC clauses sdrop:F, sdup:F, sslow:F:D, sout:T0,T1 \
           and the Byzantine clauses byz:P@T, byz:P@#D, byzval:P:RULE \
           (RULE: replay-stale, off-by-K, max-int), byzeq:P, joined with \
           '/', or $(b,none). Example: \
           crash:3@1.5/recover:3@40/drop:0.01. Payload-rewriting plans \
           (byzval:/byzeq:) need a counter with a corruption hook \
           (sync-count, sync-no-threshold).")

(* Payload-rewriting plans need a counter that installs the corruption
   hook; on any other counter Network.create would raise. Turn that into
   a usage error up front. *)
let byz_capable = [ "sync-count"; "sync-no-threshold" ]

let guard_byz_plan cmd name faults =
  match faults with
  | Some f
    when f.Sim.Fault.byz_rules <> [] && not (List.mem name byz_capable) ->
      Format.eprintf
        "dcount %s: fault plan rewrites payloads (byzval:/byzeq:) but \
         counter %s has no corruption hook (byz-capable: %s)@."
        cmd name
        (String.concat ", " byz_capable);
      exit 2
  | _ -> ()

(* A schedule naming an origin above the counter's rounded n would raise
   from deep inside the run; report it as a usage error instead. *)
let guard_origins cmd counter n schedule =
  let (module C : Counter.Counter_intf.S) = counter in
  let n = C.supported_n n in
  match Counter.Schedule.check_origins schedule ~n with
  | Ok () -> ()
  | Error e ->
      Format.eprintf "dcount %s: -s %s: %s (%s runs at n = %d)@." cmd
        (Counter.Schedule.to_string schedule)
        e C.name n;
      exit 2

(* An output file the run cannot create is a usage error, reported the
   way a missing input file is. *)
let write_file cmd path contents =
  try
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc contents)
  with Sys_error e ->
    Format.eprintf "dcount %s: %s@." cmd e;
    exit 2

let counter_arg =
  Arg.(
    value
    & opt counter_conv Baselines.Registry.retire_tree
    & info [ "c"; "counter" ] ~docv:"NAME"
        ~doc:"Counter implementation (see $(b,dcount list)).")

let n_arg =
  Arg.(
    value & opt int 81
    & info [ "n" ] ~docv:"N"
        ~doc:
          "Number of processors; rounded up to the nearest size the \
           counter supports.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let delay_arg =
  Arg.(
    value
    & opt (some delay_conv) None
    & info [ "delay" ] ~docv:"MODEL"
        ~doc:
          "Delivery latency model: constant:D, uniform:LO,HI, exp:MEAN or \
           jitter:BASE. Default constant:1.")

let quorum_systems : (string * Quorum.Quorum_intf.system) list =
  [
    ("majority", (module Quorum.Majority));
    ("grid", (module Quorum.Grid));
    ("tree", (module Quorum.Tree_quorum));
    ("crumbling-wall", (module Quorum.Crumbling_wall));
    ("projective-plane", (module Quorum.Projective_plane));
  ]

(* ------------------------------------------------------------------ *)
(* list *)

let list_cmd =
  let run () =
    Format.printf "counters:@.";
    List.iter
      (fun (module C : Counter.Counter_intf.S) ->
        Format.printf "  %-22s %s@." C.name C.describe)
      Baselines.Registry.all;
    Format.printf "@.by-name only (correct, priced out of default sweeps):@.";
    (let (module C : Counter.Counter_intf.S) = Baselines.Registry.sync_count in
     Format.printf "  %-22s %s@." C.name C.describe);
    Format.printf "@.broken baselines (negative controls, by name):@.";
    List.iter
      (fun (module C : Counter.Counter_intf.S) ->
        Format.printf "  %-22s %s@." C.name C.describe)
      Baselines.Registry.broken;
    Format.printf "@.quorum systems:@.";
    List.iter
      (fun (name, (module Q : Quorum.Quorum_intf.S)) ->
        Format.printf "  %-22s %s@." name Q.describe)
      quorum_systems
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available counters and quorum systems.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* run *)

let schedule_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Counter.Schedule.of_string s)
  in
  Arg.conv (parse, Counter.Schedule.pp)

let run_cmd =
  let run counter n seed delay faults schedule debug seeds domains =
    if debug then begin
      Logs.set_reporter (Logs_fmt.reporter ());
      Logs.set_level (Some Logs.Debug)
    end;
    (let (module C : Counter.Counter_intf.S) = counter in
     guard_byz_plan "run" C.name faults);
    guard_origins "run" counter n schedule;
    (* Under an active fault plan stalls and value gaps are expected, so
       the correctness verdict only gates the exit code on fault-free
       runs. *)
    let fault_free =
      match faults with None -> true | Some f -> Sim.Fault.is_none f
    in
    if seeds <= 1 then begin
      let r =
        Counter.Driver.run ~seed ?delay ?faults counter ~n ~schedule
      in
      Format.printf "%a@." Counter.Driver.pp_report r;
      if
        fault_free
        && not
             (r.Counter.Driver.values_exact
             && r.Counter.Driver.sequentially_ordered)
      then exit 1
    end
    else begin
      (* Replicated mode: the same experiment across consecutive seeds,
         fanned out over domains — every run is an independent simulation,
         so this parallelises without sharing. *)
      let seed_list = List.init seeds (fun i -> seed + i) in
      let reports =
        Analysis.Replicate.parallel_map ?domains
          (fun s ->
            Counter.Driver.run ~seed:s ?delay ?faults counter ~n ~schedule)
          seed_list
      in
      let by_seed = List.combine seed_list reports in
      let summarize metric =
        Analysis.Replicate.across_seeds ~seeds:seed_list (fun s ->
            metric (List.assoc s by_seed))
      in
      let (module C : Counter.Counter_intf.S) = counter in
      let first = List.hd reports in
      Format.printf "%s: %d runs (seeds %d..%d), n = %d, schedule %a@."
        C.name seeds seed
        (seed + seeds - 1)
        first.Counter.Driver.n Counter.Schedule.pp schedule;
      let line label metric =
        Format.printf "  %-18s %a@." label Analysis.Replicate.pp_summary
          (summarize metric)
      in
      line "bottleneck load:" (fun r ->
          float_of_int r.Counter.Driver.bottleneck_load);
      line "total messages:" (fun r ->
          float_of_int r.Counter.Driver.total_messages);
      line "mean op latency:" (fun r -> r.Counter.Driver.mean_op_latency);
      (if not fault_free then
         line "stalled ops:" (fun r -> float_of_int r.Counter.Driver.stalled));
      List.iter
        (fun (s, r) ->
          if
            fault_free
            && not
                 (r.Counter.Driver.values_exact
                 && r.Counter.Driver.sequentially_ordered)
          then
            Format.printf "  seed %d: INCORRECT value sequence@." s)
        by_seed;
      if
        fault_free
        && List.exists
             (fun (_, r) ->
               not
                 (r.Counter.Driver.values_exact
                 && r.Counter.Driver.sequentially_ordered))
             by_seed
      then exit 1
    end
  in
  let debug_arg =
    Arg.(
      value & flag
      & info [ "debug" ]
          ~doc:"Log every message delivery (src -> dst, tag, time).")
  in
  let schedule_arg =
    Arg.(
      value
      & opt schedule_conv Counter.Schedule.Each_once
      & info [ "s"; "schedule" ] ~docv:"SCHEDULE"
          ~doc:
            "Operation schedule: each-once, shuffled, round-robin:OPS, \
             random:OPS, single:P:OPS or explicit:P,P,...")
  in
  let seeds_arg =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"K"
          ~doc:
            "Replicate the run over K consecutive seeds (SEED .. SEED+K-1) \
             and report mean / spread / 95% CI instead of a single report.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Number of domains for replicated runs (default: the runtime's \
             recommended count). Only meaningful with $(b,--seeds).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a schedule against a counter and report loads.")
    Term.(
      const run $ counter_arg $ n_arg $ seed_arg $ delay_arg $ faults_arg
      $ schedule_arg $ debug_arg $ seeds_arg $ domains_arg)

(* ------------------------------------------------------------------ *)
(* load *)

let load_cmd =
  let arrivals_conv =
    let parse s =
      match Sim.Arrivals.of_string s with
      | a -> Ok a
      | exception Invalid_argument e -> Error (`Msg e)
    in
    Arg.conv (parse, Sim.Arrivals.pp)
  in
  let run name n seed delay faults rate arrivals ops check =
    if ops < 1 then begin
      Format.eprintf "dcount load: --ops must be >= 1@.";
      exit 2
    end;
    let counter =
      match Baselines.Registry.find_concurrent name with
      | Some c -> c
      | None ->
          Format.eprintf "dcount load: unknown counter %S (try: %s)@." name
            (String.concat ", " (Baselines.Registry.names ()));
          exit 2
    in
    guard_byz_plan "load" name faults;
    let arrivals =
      match (arrivals, rate) with
      | Some _, Some _ ->
          Format.eprintf
            "dcount load: --rate and --arrivals are mutually exclusive@.";
          exit 2
      | Some a, None -> a
      | None, Some r ->
          if r <= 0. then begin
            Format.eprintf "dcount load: --rate must be positive@.";
            exit 2
          end;
          Sim.Arrivals.Poisson r
      | None, None -> Sim.Arrivals.Poisson 1.0
    in
    (* Unlike [run], the default delay model is exp:1, not constant:1 —
       with zero delay variance messages never overtake each other and
       the overlap regime degenerates to a lock-step pipeline (constant
       delay keeps even the counting network linearizable). *)
    let delay =
      Some (Option.value delay ~default:(Sim.Delay.Exponential 1.0))
    in
    let r =
      Counter.Driver.run_load ~seed ?delay ?faults counter ~n ~arrivals ~ops
    in
    Format.printf "%a@." Counter.Driver.pp_load_report r;
    if check then begin
      let fault_free =
        match faults with None -> true | Some f -> Sim.Fault.is_none f
      in
      let a = r.Counter.Driver.analysis in
      let failed = ref false in
      if not a.Counter.History.linearizable then begin
        Format.eprintf "load check FAILED: history is not linearizable@.";
        failed := true
      end;
      if fault_free && r.Counter.Driver.lost > 0 then begin
        Format.eprintf
          "load check FAILED: %d operations lost on a fault-free run@."
          r.Counter.Driver.lost;
        failed := true
      end;
      if !failed then exit 1;
      Format.printf "load check: OK@."
    end
  in
  let name_arg =
    Arg.(
      value & opt string "retire-tree"
      & info [ "c"; "counter" ] ~docv:"NAME"
          ~doc:
            "Counter implementation (see the list in the error message for \
             an unknown name).")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Shorthand for $(b,--arrivals poisson:R) — memoryless arrivals \
             at per-source rate R.")
  in
  let arrivals_arg =
    Arg.(
      value
      & opt (some arrivals_conv) None
      & info [ "arrivals" ] ~docv:"PROC"
          ~doc:
            "Arrival process per source: $(b,fixed:R), $(b,poisson:R) or \
             $(b,bursty:R:ON:OFF). Default poisson:1.")
  in
  let ops_arg =
    Arg.(
      value & opt int 1000
      & info [ "ops" ] ~docv:"OPS" ~doc:"Operations to inject (default 1000).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Gate the exit code on the concurrent-history verdicts: exit 1 \
             if the history is not linearizable, or if a fault-free run \
             lost operations. Usage errors exit 2.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Open-loop concurrent load: inject operations at arrival-process \
          times without waiting for completions, then report throughput, \
          latency percentiles and linearizability / quiescent-consistency \
          verdicts over the concurrent history (docs/LOAD.md).")
    Term.(
      const run $ name_arg $ n_arg $ seed_arg $ delay_arg $ faults_arg
      $ rate_arg $ arrivals_arg $ ops_arg $ check_arg)

(* ------------------------------------------------------------------ *)
(* chaos *)

let chaos_cmd =
  (* One operation round: round-robin over the origins, skipping origins
     already crashed when their turn comes (a dead client cannot issue a
     request). Each attempted operation comes back with whether its
     origin was still alive when it ended: an origin crashing
     mid-operation can never see its own answer. *)
  let run_ops (type c) (module C : Counter.Counter_intf.S with type t = c)
      (c : c) ~n ~ops =
    let origin = ref 0 and outcomes = ref [] in
    for _ = 1 to ops do
      let rec advance tries =
        origin := (!origin mod n) + 1;
        if C.crashed c !origin && tries < n then advance (tries + 1)
      in
      advance 0;
      if not (C.crashed c !origin) then
        let o = C.inc_result c ~origin:!origin in
        outcomes := (o, not (C.crashed c !origin)) :: !outcomes
    done;
    List.rev !outcomes
  in
  (* Deterministic victim/trigger choice: a private stream per (crashes,
     drop) cell so rows are independently reproducible. Without
     --recover, crashes trigger on delivery counts drawn from the
     fault-free run's total. With it, crashes move to virtual-time
     triggers drawn from the fault-free run's span so each victim's
     revival can be placed strictly after its death — a beat or two of
     timeout (32.) later, while operations are still running. Victims
     are drawn from 1..n, so the durable counter's store (processor
     n+1) never crashes. *)
  let crash_plan ~seed ~n ~recover ~dup ~base_total ~base_span crashes di d =
    let rng =
      Sim.Rng.create
        ~seed:(seed lxor (crashes * 7919) lxor ((di + 1) * 104729))
    in
    let perm = Sim.Rng.permutation rng n in
    let victim i =
      let processor = perm.(i) + 1 in
      if recover then
        let tc = Sim.Rng.float rng (Float.max 1. base_span) in
        ( { Sim.Fault.processor; trigger = Sim.Fault.At tc },
          [ { Sim.Fault.processor; time = tc +. 32. +. Sim.Rng.float rng 64. } ]
        )
      else
        let after = 1 + Sim.Rng.int rng (max 1 base_total) in
        ({ Sim.Fault.processor; trigger = Sim.Fault.After after }, [])
    in
    let victims = List.init (min crashes n) victim in
    {
      Sim.Fault.none with
      Sim.Fault.crashes = List.map fst victims;
      recovers = List.concat_map snd victims;
      drop = d;
      duplicate = dup;
    }
  in
  let run counter n seed delay crash_counts drop_rates dup ops check recover
      byz byz_counts =
    List.iter
      (fun (flag, p) ->
        if not (p >= 0. && p <= 1.) then begin
          Format.eprintf "dcount chaos: %s %g is not a probability in [0, 1]@."
            flag p;
          exit 2
        end)
      (("--dup", dup) :: List.map (fun d -> ("--drops", d)) drop_rates);
    let (module K : Counter.Counter_intf.S) = counter in
    if byz && not (List.mem K.name byz_capable) then begin
      Format.eprintf
        "dcount chaos: --byz sweeps need a corruption-hooked counter (%s); \
         %s has none@."
        (String.concat ", " byz_capable)
        K.name;
      exit 2
    end;
    let n = K.supported_n n and promise = Baselines.Registry.promise K.name in
    let ops = if ops <= 0 then 2 * n else ops and f = (n - 1) / 3 in
    let tag =
      match promise with
      | _ when byz -> " (byzantine)"
      | Counter.Promise.Durable -> " (durable)"
      | _ -> ""
    in
    (* Rows are crash x drop cells, or turn counts with --byz; each row is
       printed and held to the counter's promise. The fault-free baseline
       is the reference for added load and bottleneck shift, and gives the
       horizons crash triggers are drawn from. *)
    let sweep (type c) (module C : Counter.Counter_intf.S with type t = c)
        (replays : c -> int option) =
      let run_under plan =
        let c = C.create ~seed ?delay ~faults:plan ~n () in
        (c, run_ops (module C) c ~n ~ops)
      in
      let baseline, _ = run_under Sim.Fault.none in
      let base_m = C.metrics baseline in
      let base_total = Sim.Metrics.total_messages base_m in
      let base_bproc, base_bload = Sim.Metrics.bottleneck base_m in
      let base_per_op = float_of_int base_total /. float_of_int (max 1 ops) in
      let base_span =
        List.fold_left
          (fun acc t -> acc +. Sim.Trace.duration t)
          0. (C.traces baseline)
      in
      Format.printf
        "chaos sweep%s: counter=%s n=%d %s@.baseline: %d msgs (%.1f/op), \
         bottleneck p%d(%d)@.@."
        tag C.name n
        (if byz then Printf.sprintf "f=%d ops=%d seed=%d" f ops seed
         else
           Printf.sprintf "ops=%d seed=%d dup=%g recover=%b" ops seed dup
             recover)
        base_total base_per_op base_bproc base_bload;
      Format.printf "%s  %-11s%s %7s  %8s %8s  %-12s %s@."
        (if byz then Printf.sprintf "%4s %6s" "byz" "vs f"
         else Printf.sprintf "%7s %6s" "crashes" "drop")
        "done/req"
        (if byz then "" else Printf.sprintf " %7s" "skipped")
        "stalled" "msgs/op" "load+%" "bottleneck" "notes";
      let rows =
        if byz then
          List.map
            (fun b ->
              let b = min b n in
              ( Printf.sprintf "%4d %6s" b (if b <= f then "b<=f" else "b>f"),
                Printf.sprintf "byz=%d" b,
                Core.Sync_counter.king_plan ~n ~b ))
            byz_counts
        else
          List.concat_map
            (fun crashes ->
              List.mapi
                (fun di d ->
                  ( Printf.sprintf "%7d %6.2f" crashes d,
                    Printf.sprintf "crashes=%d drop=%g" crashes d,
                    crash_plan ~seed ~n ~recover ~dup ~base_total ~base_span
                      crashes di d ))
                drop_rates)
            crash_counts
      in
      let failures = ref [] in
      List.iter
        (fun (key, label, plan) ->
          let c, outcomes = run_under plan in
          let m = C.metrics c and value = C.value c in
          let total = Sim.Metrics.total_messages m in
          let bproc, bload = Sim.Metrics.bottleneck m in
          let stalls =
            List.filter_map
              (function
                | Counter.Counter_intf.Stalled s, _ -> Some s
                | Counter.Counter_intf.Completed _, _ -> None)
              outcomes
          in
          let attempted = List.length outcomes
          and stalled = List.length stalls in
          let per_op = float_of_int total /. float_of_int (max 1 attempted) in
          let count name k =
            if k > 0 then [ Printf.sprintf "%s=%d" name k ] else []
          in
          let notes =
            (if byz then
               count "corrupted" (Sim.Metrics.corruptions m)
               @ count "agreement-violations"
                   (List.length
                      (List.filter Counter.Promise.agreement_stall stalls))
             else
               match replays c with
               | Some r ->
                   count "replayed" r @ [ Printf.sprintf "durable=%d" value ]
               | None ->
                   let emerg = Sim.Metrics.emergency_retirements m
                   and recovered = Sim.Metrics.recoveries m in
                   if emerg = 0 && recovered = 0 then []
                   else
                     [ Printf.sprintf "emerg=%d recovered=%d" emerg recovered ])
            @
            match List.rev stalls with
            | last :: _ -> [ "last stall: " ^ last ]
            | [] -> []
          in
          Format.printf "%s  %5d/%-5d%s %7d  %8.1f %+7.0f%%  p%d(%d)%s %s@."
            key (attempted - stalled) attempted
            (if byz then "" else Printf.sprintf " %7d" (ops - attempted))
            stalled per_op
            (if base_per_op > 0. then 100. *. ((per_op /. base_per_op) -. 1.)
             else 0.)
            bproc bload
            (if bproc <> base_bproc then "*" else " ")
            (String.concat "; " notes);
          if check then
            List.iter
              (fun s -> failures := (label ^ ": " ^ s) :: !failures)
              (Counter.Promise.check promise
                 { plan; n; ops; outcomes; value }))
        rows;
      Format.printf
        "@.(* = bottleneck moved off the fault-free bottleneck processor \
         p%d)@."
        base_bproc;
      if check then
        match !failures with
        | [] -> Format.printf "chaos check%s: OK@." tag
        | fs ->
            List.iter (Format.eprintf "chaos check FAILED: %s@.") fs;
            exit 1
    in
    (* The durable counter's notes read its WAL replays, so it is swept at
       its own type. *)
    match promise with
    | Counter.Promise.Durable ->
        sweep
          (module Core.Durable_counter)
          (fun c -> Some (Core.Durable_counter.replays c))
    | _ -> sweep (module K) (fun _ -> None)
  in
  let crashes_arg =
    Arg.(
      value
      & opt (list int) [ 0; 1; 2 ]
      & info [ "crashes" ] ~docv:"F,F,..."
          ~doc:"Crash counts to sweep (victims drawn deterministically).")
  in
  let drops_arg =
    Arg.(
      value
      & opt (list float) [ 0. ]
      & info [ "drops" ] ~docv:"D,D,..."
          ~doc:"Per-message drop probabilities to sweep.")
  in
  let dup_arg =
    Arg.(
      value & opt float 0.
      & info [ "dup" ] ~docv:"F" ~doc:"Per-message duplication probability.")
  in
  let ops_arg =
    Arg.(
      value & opt int 0
      & info [ "ops" ] ~docv:"OPS"
          ~doc:"Operations per configuration (default 2n), round-robin.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Hold every row to the counter's promise and exit 1 on a \
             violation. Completes (every counter): the fault-free row \
             completes every operation. Quorum_live (the quorum \
             counters): no live-origin operation stalls at drop 0 and dup \
             0 while at most (n-1)/2 processors crash. Live_origins \
             (retire-ft): at drop 0 and dup 0 a live origin stalls only \
             with a reason naming the origin. Durable ($(b,durable)): no \
             acked increment is lost — acked values are distinct and \
             below the durable count, and the WAL monitor saw no \
             violation. Agreement (sync-count): with at most f = (n-1)/3 \
             turned processors and no other fault, every operation \
             completes. Splits (the sync-no-threshold control): every row \
             with a turned processor shows an agreement violation.")
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Schedule every crash victim to rejoin (recover:P@T) at a \
             time drawn from the fault-free run's virtual-time span; rows \
             report emergency retirements and actual revivals in the \
             notes column.")
  in
  let byz_flag_arg =
    Arg.(
      value & flag
      & info [ "byz" ]
          ~doc:
            "Sweep turned-Byzantine processor counts instead of crashes \
             (requires a corruption-hooked counter: $(b,sync-count) or \
             $(b,sync-no-threshold)). Victims are the kings, last king \
             first — the adversary's strongest seats — with rewrite \
             rules cycling off-by-7 / max-int / replay-stale and every \
             second victim equivocating.")
  in
  let byz_counts_arg =
    Arg.(
      value
      & opt (list int) [ 0; 1; 2; 3 ]
      & info [ "byz-counts" ] ~docv:"B,B,..."
          ~doc:
            "Turned-processor counts for the $(b,--byz) sweep (default \
             0,1,2,3 — straddles f = 2 at n = 7).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep crash counts and drop rates against a counter; report \
          completion rate, added message load and bottleneck shift. With \
          $(b,--byz), sweep Byzantine turn counts instead.")
    Term.(
      const run $ counter_arg $ n_arg $ seed_arg $ delay_arg $ crashes_arg
      $ drops_arg $ dup_arg $ ops_arg $ check_arg $ recover_arg
      $ byz_flag_arg $ byz_counts_arg)

(* ------------------------------------------------------------------ *)
(* compare *)

let compare_cmd =
  let run ns csv =
    let t =
      Analysis.Table.create
        ~columns:
          ("counter" :: List.map (fun n -> "n=" ^ string_of_int n) ns)
    in
    List.iter
      (fun c ->
        let cells =
          List.map
            (fun n ->
              let r = Counter.Driver.run_each_once c ~n in
              string_of_int r.Counter.Driver.bottleneck_load)
            ns
        in
        let (module C : Counter.Counter_intf.S) = c in
        Analysis.Table.add_row t (C.name :: cells))
      Baselines.Registry.all;
    match csv with
    | None ->
        Format.printf "bottleneck message load, each-processor-once:@.%a@."
          Analysis.Table.pp t
    | Some path ->
        write_file "compare" path (Analysis.Table.to_csv t);
        Format.printf "wrote %s@." path
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the table as CSV to FILE.")
  in
  let ns_arg =
    Arg.(
      value
      & opt (list int) [ 8; 81; 1024 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Network sizes to sweep.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Bottleneck comparison across all counters.")
    Term.(const run $ ns_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* adversary *)

let adversary_cmd =
  let run counter n seed sample verbose =
    let r = Core.Adversary.run ~seed ~sample counter ~n in
    Format.printf "%a@." Core.Adversary.pp_result r;
    if verbose then begin
      Format.printf "@.weight trajectory:@.";
      List.iter
        (fun o -> Format.printf "  %a@." Core.Weights.pp_observation o)
        r.Core.Adversary.q_observations
    end;
    if not r.Core.Adversary.bound_satisfied then exit 1
  in
  let sample_arg =
    Arg.(
      value & opt int 16
      & info [ "sample" ] ~docv:"S"
          ~doc:"Candidates evaluated per adversary step (cost control).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the weight trajectory.")
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Run the Lower Bound Theorem's adversarial sequence.")
    Term.(const run $ counter_arg $ n_arg $ seed_arg $ sample_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let run counter n seed ops lanes =
    let (module C : Counter.Counter_intf.S) = counter in
    let n = C.supported_n n in
    let c = C.create ~seed ~n () in
    for i = 1 to min ops n do
      ignore (C.inc c ~origin:i)
    done;
    List.iter
      (fun trace ->
        if lanes then Format.printf "%a@." Sim.Trace.pp_lanes trace
        else Format.printf "%a@." Sim.Trace.pp trace;
        let dag = Sim.Dag.of_trace trace in
        Format.printf "  list: %a@." Sim.Comm_list.pp
          (Sim.Comm_list.of_trace trace);
        Format.printf "  critical path: %d msgs; max parallelism: %d@.@."
          (Sim.Dag.critical_path dag) (Sim.Dag.max_width dag))
      (C.traces c)
  in
  let lanes_arg =
    Arg.(
      value & flag
      & info [ "lanes" ] ~doc:"Render as a message-sequence chart.")
  in
  let ops_arg =
    Arg.(
      value & opt int 3
      & info [ "ops" ] ~docv:"OPS" ~doc:"How many operations to trace.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the process DAG (Fig. 1) and communication list (Fig. 2).")
    Term.(const run $ counter_arg $ n_arg $ seed_arg $ ops_arg $ lanes_arg)

(* ------------------------------------------------------------------ *)
(* dot *)

let dot_cmd =
  let run counter n seed op output =
    if op < 0 then begin
      Format.eprintf "dcount dot: --op must be >= 0, got %d@." op;
      exit 2
    end;
    let (module C : Counter.Counter_intf.S) = counter in
    let n = C.supported_n n in
    let c = C.create ~seed ~n () in
    for i = 1 to min (op + 1) n do
      ignore (C.inc c ~origin:i)
    done;
    match List.nth_opt (C.traces c) op with
    | None ->
        Format.eprintf "no operation #%d was executed@." op;
        exit 2
    | Some trace -> (
        let dot = Sim.Trace.to_dot trace in
        match output with
        | None -> print_string dot
        | Some path ->
            write_file "dot" path dot;
            Format.printf "wrote %s (render with: dot -Tsvg %s -o fig1.svg)@."
              path path)
  in
  let op_arg =
    Arg.(
      value & opt int 0
      & info [ "op" ] ~docv:"I" ~doc:"Which operation's process to render (0-based).")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Emit the process DAG of an operation as Graphviz (Fig. 1).")
    Term.(const run $ counter_arg $ n_arg $ seed_arg $ op_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* quorum *)

let quorum_cmd =
  let run name n fraction trials =
    match List.assoc_opt name quorum_systems with
    | None ->
        Format.eprintf "unknown quorum system %S (try: %s)@." name
          (String.concat ", " (List.map fst quorum_systems));
        exit 2
    | Some ((module Q : Quorum.Quorum_intf.S) as q) ->
        let n = Q.supported_n n in
        let profile = Quorum.Load.measure q ~n () in
        Format.printf "%a@." Quorum.Load.pp_profile profile;
        let mean, success =
          Quorum.Probe.expected_probes q ~n ~fraction ~trials ~seed:42
        in
        Format.printf
          "probe complexity at %.0f%% crash rate: %.1f probes/search, %.0f%% \
           success (%d trials)@."
          (100. *. fraction) mean (100. *. success) trials
  in
  let name_arg =
    Arg.(
      value & opt string "grid"
      & info [ "q"; "system" ] ~docv:"NAME" ~doc:"Quorum system name.")
  in
  let fraction_arg =
    Arg.(
      value & opt float 0.1
      & info [ "crash" ] ~docv:"F" ~doc:"Per-element crash probability.")
  in
  let trials_arg =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"T" ~doc:"Monte-Carlo trials.")
  in
  Cmd.v
    (Cmd.info "quorum" ~doc:"Analyse a quorum system's load and probes.")
    Term.(const run $ name_arg $ n_arg $ fraction_arg $ trials_arg)

(* ------------------------------------------------------------------ *)
(* exhaustive *)

let exhaustive_cmd =
  let run counter n limit =
    let limit = if limit <= 0 then None else Some limit in
    let s = Core.Exhaustive.verify_counter ?limit counter ~n in
    Format.printf "%a@." Core.Exhaustive.pp_stats s;
    if
      not
        (s.Core.Exhaustive.all_correct && s.Core.Exhaustive.all_hotspot
        && s.Core.Exhaustive.all_bound)
    then exit 1
  in
  let limit_arg =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"L"
          ~doc:"Check only the first L orders (0 = all; required for n > 9).")
  in
  Cmd.v
    (Cmd.info "exhaustive"
       ~doc:
         "Verify correctness, Hot Spot Lemma and the lower bound over           EVERY each-once operation order (n! executions; keep n small).")
    Term.(const run $ counter_arg $ n_arg $ limit_arg)

(* ------------------------------------------------------------------ *)
(* mc *)

(* A plan the explorer cannot check (a probabilistic or store clause, a
   victim outside the counter's rounded 1..n) is a usage error, not a
   crash. *)
let guard_mc_plan counter n faults =
  let (module C : Counter.Counter_intf.S) = counter in
  match Mc.Explore.validate_plan faults ~n:(C.supported_n n) with
  | Ok () -> ()
  | Error e ->
      Format.eprintf "dcount mc: %s: %s@." C.name e;
      exit 2

let mc_cmd =
  let run counter n seed faults schedule max_states max_depth prune
      expect_violation allow_incomplete cx_out replay_file sweep_all
      progress property =
    List.iter
      (fun (flag, v) ->
        if v < 0 then begin
          Format.eprintf "dcount mc: --%s must be >= 0, got %d@." flag v;
          exit 2
        end)
      [ ("max-states", max_states); ("max-depth", max_depth) ];
    let required_property =
      match property with
      | None -> None
      | Some s -> (
          match Mc.Explore.property_of_name s with
          | Ok p -> Some p
          | Error e ->
              Format.eprintf "dcount mc: %s@." e;
              exit 2)
    in
    let config =
      {
        Mc.Explore.default_config with
        max_states;
        max_depth;
        check_progress = progress;
        prune =
          (match Mc.Prune.of_string prune with
          | Ok m -> m
          | Error e ->
              Format.eprintf "%s@." e;
              exit 2);
      }
    in
    let faults = Option.value faults ~default:Sim.Fault.none in
    if sweep_all && faults.Sim.Fault.byz_rules <> [] then begin
      Format.eprintf
        "dcount mc: --all cannot take a payload-rewriting plan \
         (byzval:/byzeq:) — most counters have no corruption hook@.";
      exit 2
    end;
    match replay_file with
    | Some path -> (
        (* Replay a stored counterexample byte stream deterministically. *)
        let contents =
          try In_channel.with_open_text path In_channel.input_all
          with Sys_error e ->
            Format.eprintf "%s@." e;
            exit 2
        in
        match Mc.Replay.of_string contents with
        | Error e ->
            Format.eprintf "bad counterexample %s: %s@." path e;
            exit 2
        | Ok cx -> (
            let c =
              match Baselines.Registry.find cx.Mc.Replay.counter with
              | Some c -> c
              | None ->
                  Format.eprintf "unknown counter %S in %s@."
                    cx.Mc.Replay.counter path;
                  exit 2
            in
            guard_mc_plan c cx.Mc.Replay.n cx.Mc.Replay.faults;
            match Mc.Replay.run c cx with
            | Error e ->
                Format.eprintf "replay failed: %s@." e;
                exit 2
            | Ok None ->
                Format.printf
                  "replay of %s: execution is clean (stored violation %s did \
                   NOT reproduce)@."
                  path cx.Mc.Replay.property;
                exit 1
            | Ok (Some v) ->
                Format.printf "replay of %s:@.%a@." path Mc.Explore.pp_violation
                  v;
                if Mc.Explore.property_name v.Mc.Explore.property
                   <> cx.Mc.Replay.property
                then begin
                  Format.printf
                    "stored property was %s — replay hit a different one@."
                    cx.Mc.Replay.property;
                  exit 1
                end))
    | None when sweep_all ->
        (* Found-or-absent table over every registered counter, the broken
           ones last — the table EXPERIMENTS.md quotes. *)
        let rows =
          Baselines.Registry.all @ Baselines.Registry.broken
        in
        List.iter
          (fun c ->
            guard_origins "mc" c n schedule;
            guard_mc_plan c n faults)
          rows;
        Format.printf "model check: n=%d schedule=%a faults=%a budget=%d@.@."
          n Counter.Schedule.pp schedule Sim.Fault.pp faults max_states;
        Format.printf "%-22s %-12s %11s %11s %9s@." "counter" "verdict"
          "executions" "states" "violation";
        let any_unexpected = ref false in
        List.iter
          (fun ((module C : Counter.Counter_intf.S) as c) ->
            let o = Mc.Explore.check ~seed ~faults ~config c ~n ~schedule in
            let verdict, violation =
              match o.Mc.Explore.verdict with
              | Mc.Explore.Exhausted_ok -> ("exhausted", "absent")
              | Mc.Explore.Budget_exhausted -> ("budget", "none-found")
              | Mc.Explore.Violation_found v ->
                  ("violation", Mc.Explore.property_name v.Mc.Explore.property)
            in
            let broken =
              List.exists
                (fun (module B : Counter.Counter_intf.S) -> B.name = C.name)
                Baselines.Registry.broken
            in
            (match o.Mc.Explore.verdict with
            | Mc.Explore.Violation_found _ when not broken ->
                any_unexpected := true
            | _ -> ());
            Format.printf "%-22s %-12s %11d %11d %9s%s@." C.name verdict
              o.Mc.Explore.stats.Mc.Explore.executions
              o.Mc.Explore.stats.Mc.Explore.states violation
              (if broken then "  (broken by design)" else ""))
          rows;
        if !any_unexpected then exit 1
    | None -> (
        (let (module C : Counter.Counter_intf.S) = counter in
         guard_byz_plan "mc" C.name (Some faults));
        guard_origins "mc" counter n schedule;
        guard_mc_plan counter n faults;
        let outcome = Mc.Explore.check ~seed ~faults ~config counter ~n ~schedule in
        Format.printf "@[<v>%a@,%a@]@." Mc.Explore.pp_verdict
          outcome.Mc.Explore.verdict Mc.Explore.pp_stats
          outcome.Mc.Explore.stats;
        (match (outcome.Mc.Explore.verdict, cx_out) with
        | Mc.Explore.Violation_found v, Some path ->
            let (module C : Counter.Counter_intf.S) = counter in
            let cx =
              Mc.Replay.of_violation ~counter:C.name
                ~n:(C.supported_n n) ~seed ~schedule ~faults v
            in
            write_file "mc" path (Mc.Replay.to_string cx);
            Format.printf "wrote counterexample to %s@." path
        | _ -> ());
        match outcome.Mc.Explore.verdict with
        | Mc.Explore.Exhausted_ok -> if expect_violation then exit 1
        | Mc.Explore.Violation_found v ->
            (match required_property with
            | Some p when v.Mc.Explore.property <> p ->
                Format.printf
                  "found property %s, but --property requires %s@."
                  (Mc.Explore.property_name v.Mc.Explore.property)
                  (Mc.Explore.property_name p);
                exit 1
            | _ -> ());
            if not expect_violation then exit 1
        | Mc.Explore.Budget_exhausted ->
            (* A clean bounded run only counts as success when the caller
               explicitly settled for bounded checking; a failed hunt
               (--expect-violation) is never a success. *)
            if expect_violation || not allow_incomplete then exit 3)
  in
  let max_states_arg =
    Arg.(
      value & opt int Mc.Explore.default_config.Mc.Explore.max_states
      & info [ "max-states" ] ~docv:"S"
          ~doc:
            "Abort with exit 3 after discovering S decision points \
             (exploration incomplete).")
  in
  let max_depth_arg =
    Arg.(
      value & opt int Mc.Explore.default_config.Mc.Explore.max_depth
      & info [ "max-depth" ] ~docv:"D"
          ~doc:
            "Stop branching beyond D decisions per execution (deeper \
             events follow the default order).")
  in
  let prune_arg =
    Arg.(
      value & opt string "sleep"
      & info [ "prune" ] ~docv:"MODE"
          ~doc:
            "Partial-order reduction: $(b,sleep) (sleep sets, default) or \
             $(b,none) (plain DFS).")
  in
  let expect_violation_arg =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:
            "Invert the exit code: succeed only if a violation is found \
             (for negative-control counters).")
  in
  let allow_incomplete_arg =
    Arg.(
      value & flag
      & info [ "allow-incomplete" ]
          ~doc:
            "Exit 0 instead of 3 when the state or depth budget is \
             exhausted without finding a violation — bounded model \
             checking for protocols (e.g. the failure-aware retire tree \
             under a crash adversary) whose full interleaving space is \
             intractable.")
  in
  let cx_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "counterexample-out" ] ~docv:"FILE"
          ~doc:
            "On violation, write the counterexample in canonical .mcs form \
             to FILE (replayable with $(b,--replay)).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-execute the decision sequence stored in FILE and check the \
             recorded violation reproduces; all other options are ignored.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Sweep every registered counter (broken ones included) and \
             print a found-or-absent violation table; exit 1 if a \
             violation shows up in a counter that is not broken by \
             design.")
  in
  let schedule_arg =
    Arg.(
      value
      & opt schedule_conv Counter.Schedule.Each_once
      & info [ "s"; "schedule" ] ~docv:"SCHEDULE"
          ~doc:
            "Operation schedule: each-once, shuffled, round-robin:OPS, \
             random:OPS, single:P:OPS or explicit:P,P,...")
  in
  let n_mc_arg =
    Arg.(
      value & opt int 3
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Number of processors (rounded up to a supported size). Keep \
             small: the interleaving space is exponential.")
  in
  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Also check CounterProgress on crash/recover executions: once \
             every crashed victim has been revived and the run is \
             quiescent, an operation may only stall for an origin-local \
             reason (its origin was down, or it gave up retrying).")
  in
  let property_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "property" ] ~docv:"NAME"
          ~doc:
            "Require any found violation to be this property (e.g. \
             $(b,agreement-violated)): a violation of a different \
             property exits 1 even with $(b,--expect-violation); an \
             unknown property name exits 2.")
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Model-check a counter: exhaustively explore message-delivery \
          interleavings (and adversarial crash timings from --faults) and \
          check values, linearizability, the Hot Spot Lemma and the lower \
          bound on every execution.")
    Term.(
      const run $ counter_arg $ n_mc_arg $ seed_arg $ faults_arg
      $ schedule_arg $ max_states_arg $ max_depth_arg $ prune_arg
      $ expect_violation_arg $ allow_incomplete_arg $ cx_out_arg
      $ replay_arg $ all_arg $ progress_arg $ property_arg)

(* ------------------------------------------------------------------ *)
(* lint *)

let lint_cmd =
  let run rules format list_rules paths =
    if list_rules then Format.printf "%a" Lint.Report.pp_rules Lint.Registry.all
    else begin
      let rules =
        match Lint.Registry.resolve rules with
        | Ok rules -> rules
        | Error e ->
            Format.eprintf "%s@." e;
            exit 2
      in
      let paths = match paths with [] -> [ "lib"; "bin" ] | ps -> ps in
      match Lint.Driver.run ~rules ~paths with
      | Error e ->
          Format.eprintf "%s@." e;
          exit 2
      | Ok outcome ->
          (match format with
          | `Text -> Format.printf "%a" Lint.Report.pp_text outcome
          | `Json -> Format.printf "%a" Lint.Report.pp_json outcome);
          if outcome.Lint.Driver.findings <> [] then exit 1
    end
  in
  let rules_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "rules" ] ~docv:"R1,R2"
          ~doc:
            "Run only these rules, by id (D1..D4, P1, P2, R1..R3), name \
             ($(b,ambient-nondeterminism), $(b,domain-escape), ...) or \
             family ($(b,determinism), $(b,protocol), $(b,drace)). \
             Default: all.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Report format: $(b,text) (default) or $(b,json).")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"Print the rule catalogue and exit.")
  in
  let paths_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATHS"
          ~doc:
            "Files (.ml) or directories to scan, relative to the current \
             directory. Default: $(b,lib bin).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse OCaml sources for determinism, protocol \
          hygiene and domain safety (docs/LINT.md). Exit 0 clean, 1 \
          findings, 2 usage.")
    Term.(const run $ rules_arg $ format_arg $ list_arg $ paths_arg)

(* ------------------------------------------------------------------ *)
(* bound *)

let bound_cmd =
  let run ns =
    match List.find_opt (fun n -> n < 1) ns with
    | Some n ->
        Format.eprintf "dcount bound: --sizes: n must be >= 1, got %d@." n;
        exit 2
    | None -> Format.printf "%a@." Core.Lower_bound.pp_table ns
  in
  let ns_arg =
    Arg.(
      value
      & opt (list int) [ 8; 81; 1024; 15625; 279936; 5764801 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Network sizes.")
  in
  Cmd.v
    (Cmd.info "bound" ~doc:"Print the Lower Bound Theorem's k for sizes n.")
    Term.(const run $ ns_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "distributed counting testbed — Wattenhofer & Widmayer, PODC 1997"
  in
  let info = Cmd.info "dcount" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           list_cmd;
           run_cmd;
           load_cmd;
           chaos_cmd;
           compare_cmd;
           adversary_cmd;
           trace_cmd;
           dot_cmd;
           quorum_cmd;
           exhaustive_cmd;
           mc_cmd;
           lint_cmd;
           bound_cmd;
         ])
  in
  (* Usage errors exit 2 across every subcommand (the documented mc /
     chaos / lint contract); cmdliner's default for them is 124. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
