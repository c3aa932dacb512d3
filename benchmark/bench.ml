(* The repository benchmark: one workload per process, one domain.

     bench.exe --workload W --seed S [--seconds N] [--trace 0|1]
               [--out RUN.json] [--spans SPANS.json]
     bench.exe --smoke [--benchmark-json BENCHMARK.json]
     bench.exe --compare BASE_DIR NEW_DIR [--benchmark-json BENCHMARK.json]

   A run prints each metric as "name value unit" — the end-to-end
   metrics with --trace 0, the per-layer ones with --trace 1 — then, as
   its last line, one JSON object with "correct", "attempted", "failed"
   and "metrics". --out writes the full run document (metrics, layers,
   checks, and one entry per cell); a traced run also writes its spans as
   Chrome trace-event JSON (--spans, default
   benchmark/out/spans-W-S.json). See README.md. *)

module J = Analysis.Json

let usage =
  "bench.exe --workload W --seed S [--seconds N] [--trace 0|1] [--out F] \
   [--spans F]\n\
   bench.exe --smoke [--benchmark-json F]\n\
   bench.exe --compare BASE_DIR NEW_DIR [--benchmark-json F]"

let write_file path contents =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let run_once ~workload ~seed ~seconds ~trace ~out ~spans =
  match Benchkit.Workloads.find workload ~smoke:false ~seed with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " Benchkit.Workloads.names);
      exit 2
  | Some w ->
      let r =
        Benchkit.Harness.run ~workload:w ~seed ~seconds ~trace ~smoke:false
      in
      List.iter
        (fun (name, value, unit) ->
          Printf.printf "%s %.6g %s\n" name value unit)
        r.metrics;
      if not r.correct then
        Printf.printf "contract checks failed: %d of %d attempted\n" r.failed
          r.attempted;
      if out <> "" then write_file out (Benchkit.Harness.to_string r.doc);
      Option.iter
        (fun j ->
          let path =
            if spans <> "" then spans
            else Printf.sprintf "benchmark/out/spans-%s-%d.json" workload seed
          in
          write_file path (Benchkit.Harness.to_string j);
          Printf.printf "spans written to %s\n" path)
        r.spans;
      print_endline
        (Benchkit.Harness.to_string
           (J.Obj
              [
                ("correct", J.Bool r.correct);
                ("attempted", J.int r.attempted);
                ("failed", J.int r.failed);
                ("metrics", Benchkit.Harness.metrics_json r.metrics);
              ]))

(* Every workload at smoke size, untraced and traced; each run document
   is re-parsed and must carry every metric BENCHMARK.json names, with its
   unit, and pass its contract checks. *)
let smoke spec_path =
  let spec =
    match Benchkit.Compare.read_spec spec_path with
    | Ok s -> s
    | Error e ->
        prerr_endline e;
        exit 1
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun name ->
      let w = Option.get (Benchkit.Workloads.find name ~smoke:true ~seed:42) in
      List.iter
        (fun trace ->
          let r =
            Benchkit.Harness.run ~workload:w ~seed:42 ~seconds:0. ~trace
              ~smoke:true
          in
          let key, wanted =
            if trace then ("layers", spec.per_layer)
            else ("metrics", spec.end_to_end)
          in
          match J.parse (Benchkit.Harness.to_string r.doc) with
          | Error e -> problem "%s: run document does not parse: %s" name e
          | Ok doc ->
              if J.member "correct" doc <> Some (J.Bool true) then
                problem "%s (trace=%b): contract checks failed" name trace;
              let got = Option.value ~default:J.Null (J.member key doc) in
              List.iter
                (fun (m : Benchkit.Compare.metric) ->
                  match J.member m.name got with
                  | None -> problem "%s: %s %s missing" name key m.name
                  | Some v -> (
                      match
                        ( Option.bind (J.member "value" v) J.to_float,
                          Option.bind (J.member "unit" v) J.to_str )
                      with
                      | Some _, Some u when u = m.unit -> ()
                      | Some _, Some u ->
                          problem "%s: %s has unit %s, BENCHMARK.json says %s"
                            name m.name u m.unit
                      | _ -> problem "%s: %s has no value or unit" name m.name))
                wanted)
        [ false; true ];
      Printf.printf "smoke %s ok\n%!" name)
    Benchkit.Workloads.names;
  match !problems with
  | [] -> print_endline "smoke: every workload ran and reported every metric"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

let compare spec_path base_dir new_dir =
  match Benchkit.Compare.read_spec spec_path with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok spec ->
      let rows =
        Benchkit.Compare.rows spec
          ~base:(Benchkit.Compare.read_runs base_dir)
          ~fresh:(Benchkit.Compare.read_runs new_dir)
      in
      Benchkit.Compare.print rows;
      if
        List.exists
          (fun (r : Benchkit.Compare.row) -> r.verdict = "regressed")
          rows
      then exit 1

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 25. in
  let trace = ref 0 and out = ref "" and spans = ref "" in
  let smoke_mode = ref false and spec = ref "BENCHMARK.json" in
  let base = ref "" and fresh = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of the four workloads");
      ("--seed", Arg.Set_int seed, "S  workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "N  measuring budget (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--out", Arg.Set_string out, "F  write the run document");
      ("--spans", Arg.Set_string spans, "F  span file of a traced run");
      ("--smoke", Arg.Set smoke_mode, " all workloads at smoke size");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string base; Arg.Set_string fresh ],
        "BASE NEW  compare two directories of run documents" );
      ( "--benchmark-json",
        Arg.Set_string spec,
        "F  metric table (default BENCHMARK.json)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !smoke_mode then smoke !spec
  else if !base <> "" then compare !spec !base !fresh
  else if !workload = "" || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end
  else
    run_once ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1) ~out:!out ~spans:!spans
