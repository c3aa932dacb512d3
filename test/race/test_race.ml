(* The racy negative controls prove drace load-bearing from both ends:
   statically (R1 must flag each control — same scan path as dcount
   lint) and dynamically (the schedules the analyzer rejects really do
   lose updates / publish incomplete results, deterministically). *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let drace_rules () =
  match Lint.Registry.resolve [ "drace" ] with
  | Ok rules -> rules
  | Error e -> Alcotest.failf "resolve drace: %s" e

let drace_findings file =
  let raw, directives =
    Lint.Driver.scan_source ~rules:(drace_rules ()) ~file (read_file file)
  in
  let kept, _ = Lint.Suppress.apply ~directives raw in
  List.map (fun d -> d.Lint.Diagnostic.rule) kept

(* The family name expands to all three rules, in id order. *)
let test_family_resolves () =
  Alcotest.(check (list string))
    "drace family" [ "R1"; "R2"; "R3" ]
    (List.map (fun r -> r.Lint.Rule.id) (drace_rules ()))

let test_flags_racy_par () =
  let rules = drace_findings "racy_par.ml" in
  Alcotest.(check bool)
    "R1 fires on the unprotected shared counter" true
    (List.mem "R1" rules)

let test_flags_racy_replicate () =
  let rules = drace_findings "racy_replicate.ml" in
  Alcotest.(check bool)
    "R1 fires on the pre-join read" true
    (List.mem "R1" rules)

(* The domain-parallel library source must be drace-clean through the
   same entry point the CLI uses — nothing kept. *)
let test_swept_sources_clean () =
  let file = "../../lib/analysis/replicate.ml" in
  Alcotest.(check (list string))
    (file ^ " drace-clean") [] (drace_findings file)

let test_lost_update () =
  (* two increments, checksum 2 — the race keeps exactly one *)
  Alcotest.(check int) "lost update" 1 (Racy_par.forced_lost_update ())

let test_contended_never_exceeds () =
  let observed, expected = Racy_par.contended ~iters:50_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "observed %d <= expected %d" observed expected)
    true
    (observed >= 2 && observed <= expected)

let test_early_read_incomplete () =
  let xs = List.init 16 (fun i -> i + 1) in
  let early, final = Racy_replicate.map_early ~domains:4 (fun x -> x * x) xs in
  Alcotest.(check (list int)) "pre-join snapshot sees nothing" [] early;
  Alcotest.(check (list int))
    "joined result is the map" (List.map (fun x -> x * x) xs) final

let () =
  Alcotest.run "race"
    [
      ( "static",
        [
          Alcotest.test_case "drace family resolves" `Quick
            test_family_resolves;
          Alcotest.test_case "flags racy par" `Quick test_flags_racy_par;
          Alcotest.test_case "flags racy replicate" `Quick
            test_flags_racy_replicate;
          Alcotest.test_case "swept sources clean" `Quick
            test_swept_sources_clean;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "lost update" `Quick test_lost_update;
          Alcotest.test_case "contended bounded by checksum" `Quick
            test_contended_never_exceeds;
          Alcotest.test_case "early read incomplete" `Quick
            test_early_read_incomplete;
        ] );
    ]
