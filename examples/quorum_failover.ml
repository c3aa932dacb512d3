(* Quorum systems under crashes: who survives, and at what probe cost?

   The paper's related-work section ties its intersection argument to
   quorum theory. This example stresses the four classical constructions
   with growing crash rates: for each, a client searches for a fully-live
   quorum by probing elements one at a time (Peleg-Wool probe
   complexity), and we record success rates and probe counts.

     dune exec examples/quorum_failover.exe
*)

let systems : (string * Quorum.Quorum_intf.system) list =
  [
    ("majority", (module Quorum.Majority));
    ("grid", (module Quorum.Grid));
    ("tree", (module Quorum.Tree_quorum));
    ("crumbling-wall", (module Quorum.Crumbling_wall));
  ]

let () =
  let n = 100 in
  let trials = 300 in
  Printf.printf
    "probe-based failover on ~%d elements, %d random crash sets per point\n\n"
    n trials;
  let table =
    Analysis.Table.create
      ~columns:
        ("system"
        :: List.concat_map
             (fun f ->
               let pct = Printf.sprintf "%.0f%%" (100. *. f) in
               [ "probes@" ^ pct; "ok@" ^ pct ])
             [ 0.02; 0.1; 0.3 ])
  in
  List.iter
    (fun (name, ((module _ : Quorum.Quorum_intf.S) as q)) ->
      let cells =
        List.concat_map
          (fun fraction ->
            let mean, success =
              Quorum.Probe.expected_probes q ~n ~fraction ~trials ~seed:7
            in
            [
              Printf.sprintf "%.1f" mean; Printf.sprintf "%.0f%%" (100. *. success);
            ])
          [ 0.02; 0.1; 0.3 ]
      in
      Analysis.Table.add_row table (name :: cells))
    systems;
  Format.printf "%a@." Analysis.Table.pp table;
  print_endline
    "reading guide: tree quorums probe the fewest elements but their root \
     makes them fragile AND a load hot spot; majorities tolerate the most \
     crashes at the highest cost. The same tension the paper resolves for \
     counting: spreading work vs concentrating knowledge.";

  (* A concrete failover walkthrough on the grid. *)
  print_newline ();
  let (module G : Quorum.Quorum_intf.S) = (module Quorum.Grid) in
  let n = G.supported_n 100 in
  let dead = [ 1; 12; 23; 34; 45 ] in
  Printf.printf "grid walkthrough: n = %d, crashed elements: %s\n" n
    (String.concat ", " (List.map string_of_int dead));
  let outcome =
    Quorum.Probe.search (module Quorum.Grid) ~n
      ~failed:(fun e -> List.mem e dead)
  in
  (match outcome.Quorum.Probe.found with
  | Some members ->
      Printf.printf "found a live quorum after %d probes (%d quorums examined): {%s}\n"
        outcome.Quorum.Probe.probes outcome.Quorum.Probe.quorums_examined
        (String.concat ", " (List.map string_of_int members))
  | None -> Printf.printf "no live quorum (unexpected at this crash rate)\n")
