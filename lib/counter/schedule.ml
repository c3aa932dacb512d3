type t =
  | Each_once
  | Each_once_shuffled
  | Round_robin of int
  | Random of int
  | Single_origin of int * int
  | Explicit of int list

let ops t ~n =
  match t with
  | Each_once | Each_once_shuffled -> n
  | Round_robin ops | Random ops -> ops
  | Single_origin (_, ops) -> ops
  | Explicit l -> List.length l

(* Only [Single_origin] and [Explicit] name their origins; the other
   schedules generate theirs inside 1..n. *)
let check_origins t ~n =
  let named =
    match t with
    | Single_origin (p, _) -> [ p ]
    | Explicit l -> l
    | Each_once | Each_once_shuffled | Round_robin _ | Random _ -> []
  in
  match List.find_opt (fun p -> p < 1 || p > n) named with
  | Some p -> Error (Printf.sprintf "origin %d out of range 1..%d" p n)
  | None -> Ok ()

let origins t rng ~n =
  (match check_origins t ~n with
  | Error e -> invalid_arg ("Schedule: " ^ e)
  | Ok () -> ());
  match t with
  | Each_once -> List.init n (fun i -> i + 1)
  | Each_once_shuffled ->
      let a = Array.init n (fun i -> i + 1) in
      Sim.Rng.shuffle rng a;
      Array.to_list a
  | Round_robin ops -> List.init ops (fun i -> (i mod n) + 1)
  | Random ops -> List.init ops (fun _ -> 1 + Sim.Rng.int rng n)
  | Single_origin (p, ops) -> List.init ops (fun _ -> p)
  | Explicit l -> l

(* Compact textual grammar, shared by the CLI and the model checker's
   counterexample files (which must round-trip byte-for-byte). *)
let to_string = function
  | Each_once -> "each-once"
  | Each_once_shuffled -> "shuffled"
  | Round_robin ops -> Printf.sprintf "round-robin:%d" ops
  | Random ops -> Printf.sprintf "random:%d" ops
  | Single_origin (p, ops) -> Printf.sprintf "single:%d:%d" p ops
  | Explicit l -> "explicit:" ^ String.concat "," (List.map string_of_int l)

let of_string s =
  let ops_of form make ops =
    match int_of_string_opt ops with
    | Some ops when ops >= 0 -> Ok (make ops)
    | Some _ -> Error (form ^ " needs OPS >= 0")
    | None -> Error (form ^ " needs an integer")
  in
  match String.split_on_char ':' s with
  | [ "each-once" ] -> Ok Each_once
  | [ "shuffled" ] -> Ok Each_once_shuffled
  | [ "round-robin"; ops ] ->
      ops_of "round-robin:OPS" (fun ops -> Round_robin ops) ops
  | [ "random"; ops ] -> ops_of "random:OPS" (fun ops -> Random ops) ops
  | [ "single"; p; ops ] -> (
      match (int_of_string_opt p, int_of_string_opt ops) with
      | Some p, Some ops when p >= 1 && ops >= 0 ->
          Ok (Single_origin (p, ops))
      | Some _, Some _ -> Error "single:P:OPS needs P >= 1 and OPS >= 0"
      | _ -> Error "single:P:OPS needs two integers")
  | [ "explicit"; origins ] -> (
      let parts =
        List.map int_of_string_opt (String.split_on_char ',' origins)
      in
      if List.exists (fun o -> o = None) parts then
        Error "explicit:P,P,... needs comma-separated integers"
      else
        let l = List.filter_map Fun.id parts in
        if List.exists (fun p -> p < 1) l then
          Error "explicit:P,P,... needs origins >= 1"
        else Ok (Explicit l))
  | _ ->
      Error
        "schedule is each-once | shuffled | round-robin:OPS | random:OPS | \
         single:P:OPS | explicit:P,P,..."

let name = function
  | Each_once -> "each-once"
  | Each_once_shuffled -> "each-once-shuffled"
  | Round_robin _ -> "round-robin"
  | Random _ -> "random"
  | Single_origin _ -> "single-origin"
  | Explicit _ -> "explicit"

let pp ppf t =
  match t with
  | Each_once -> Format.pp_print_string ppf "each-once"
  | Each_once_shuffled -> Format.pp_print_string ppf "each-once-shuffled"
  | Round_robin ops -> Format.fprintf ppf "round-robin(%d)" ops
  | Random ops -> Format.fprintf ppf "random(%d)" ops
  | Single_origin (p, ops) -> Format.fprintf ppf "single-origin(p%d,%d)" p ops
  | Explicit l -> Format.fprintf ppf "explicit(%d ops)" (List.length l)
