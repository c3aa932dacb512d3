(* BENCHMARK.json, and the comparison of two sets of run documents.

   Each (end-to-end metric, workload) pair gets its own row: both sides'
   medians and quartiles, the fraction of seed-matched pairs the new side
   wins, and a verdict. The verdict is "unresolved" when either side's
   run-to-run spread (interquartile range over median) is wider than the
   metric's bound, unless every new run beats every base run; otherwise
   "regressed" when the new median is worse than the base median by more
   than the bound, and "ok" when it is not. *)

module J = Analysis.Json

type metric = { name : string; unit : string; better : string; bound : float }

type spec = { end_to_end : metric list; per_layer : metric list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let ( let* ) = Result.bind

let field key j =
  match J.member key j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %S" key)

let str key j =
  let* v = field key j in
  Option.to_result ~none:(Printf.sprintf "%S is not a string" key) (J.to_str v)

let num key j =
  let* v = field key j in
  Option.to_result
    ~none:(Printf.sprintf "%S is not a number" key)
    (J.to_float v)

let list key j =
  let* v = field key j in
  Option.to_result ~none:(Printf.sprintf "%S is not a list" key) (J.to_list v)

let all_ok f xs =
  List.fold_right
    (fun x acc ->
      let* tl = acc in
      let* y = f x in
      Ok (y :: tl))
    xs (Ok [])

let metric ~bounded j =
  let* name = str "name" j in
  let* unit = str "unit" j in
  let* better = str "better" j in
  let* bound = if bounded then num "bound" j else Ok 0. in
  Ok { name; unit; better; bound }

let read_spec path =
  match J.parse (read_file path) with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j ->
      let* e2e = list "end_to_end" j in
      let* layers = list "per_layer" j in
      let* end_to_end = all_ok (metric ~bounded:true) e2e in
      let* per_layer = all_ok (metric ~bounded:false) layers in
      Ok { end_to_end; per_layer }

(* Python's statistics.quantiles(xs, n=4) (the "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 2, q 3)

type run_doc = { workload : string; seed : int; values : (string * float) list }

(* Untraced run documents in [dir] (traced ones carry no end-to-end
   metrics). *)
let read_runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun file ->
         if not (Filename.check_suffix file ".json") then None
         else
           match J.parse (read_file (Filename.concat dir file)) with
           | Error _ -> None
           | Ok j -> (
               match (str "workload" j, num "seed" j, field "metrics" j) with
               | Ok workload, Ok seed, Ok (J.Obj metrics) when metrics <> [] ->
                   let values =
                     List.filter_map
                       (fun (name, m) ->
                         Option.map
                           (fun v -> (name, v))
                           (Option.bind (J.member "value" m) J.to_float))
                       metrics
                   in
                   Some { workload; seed = int_of_float seed; values }
               | _ -> None))

type row = {
  metric : metric;
  workload : string;
  base : float * float * float;
  fresh : float * float * float;
  wins : float;
  verdict : string;
}

let values_of runs ~workload ~name =
  List.filter_map
    (fun (r : run_doc) ->
      if r.workload = workload then
        Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.values)
      else None)
    runs
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let row (m : metric) ~workload base fresh =
  let beats a b = if m.better = "lower" then a < b else a > b in
  let ((b1, bm, b3) as bq) = quartiles base in
  let ((n1, nm, n3) as nq) = quartiles fresh in
  let rec pairs xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> []
  in
  let ps = pairs base fresh in
  let wins =
    float (List.length (List.filter (fun (b, n) -> beats n b) ps))
    /. float (max 1 (List.length ps))
  in
  let worse =
    (if m.better = "lower" then nm -. bm else bm -. nm) /. Float.abs bm
  in
  let spread =
    Float.max ((b3 -. b1) /. Float.abs bm) ((n3 -. n1) /. Float.abs nm)
  in
  let verdict =
    if spread > m.bound then
      if List.for_all (fun n -> List.for_all (fun b -> beats n b) base) fresh
      then "ok"
      else "unresolved"
    else if worse > m.bound then "regressed"
    else "ok"
  in
  { metric = m; workload; base = bq; fresh = nq; wins; verdict }

let rows spec ~(base : run_doc list) ~fresh =
  let workloads =
    List.filter
      (fun w -> List.exists (fun (r : run_doc) -> r.workload = w) base)
      Workloads.names
  in
  List.concat_map
    (fun (m : metric) ->
      List.filter_map
        (fun workload ->
          let b = values_of base ~workload ~name:m.name in
          let n = values_of fresh ~workload ~name:m.name in
          if b = [] || n = [] then None else Some (row m ~workload b n))
        workloads)
    spec.end_to_end

let print rows =
  Printf.printf "%-16s %-13s %-36s %-36s %8s %5s  %s\n" "metric" "workload"
    "base median [q1, q3]" "new median [q1, q3]" "change" "wins" "verdict";
  List.iter
    (fun r ->
      let q (a, m, b) = Printf.sprintf "%.6g [%.6g, %.6g]" m a b in
      let _, bm, _ = r.base and _, nm, _ = r.fresh in
      Printf.printf "%-16s %-13s %-36s %-36s %+7.2f%% %5.2f  %s\n"
        r.metric.name r.workload (q r.base) (q r.fresh)
        (100. *. (nm -. bm) /. Float.abs bm)
        r.wins r.verdict)
    rows
