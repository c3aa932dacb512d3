type trigger = At of float | After of int

type crash = { processor : int; trigger : trigger }

type recover = { processor : int; time : float }

type partition = {
  lo : int;
  hi : int;
  from_time : float;
  heal_time : float;
}

type byz_rule = Replay_stale | Off_by of int | Max_int

type t = {
  crashes : crash list;
  recovers : recover list;
  drop : float;
  drop_links : ((int * int) * float) list;
  duplicate : float;
  partitions : partition list;
  store_drop : float;
  store_dup : float;
  store_slow : float * float;
  store_outages : (float * float) list;
  byz : crash list;
  byz_rules : (int * byz_rule) list;
  byz_equiv : int list;
}

let none =
  {
    crashes = [];
    recovers = [];
    drop = 0.;
    drop_links = [];
    duplicate = 0.;
    partitions = [];
    store_drop = 0.;
    store_dup = 0.;
    store_slow = (0., 0.);
    store_outages = [];
    byz = [];
    byz_rules = [];
    byz_equiv = [];
  }

let store_active t =
  (not (Float.equal t.store_drop 0.))
  || (not (Float.equal t.store_dup 0.))
  || (not (Float.equal (fst t.store_slow) 0.))
  || t.store_outages <> []

let byz_active t = t.byz <> []

let is_none t =
  t.crashes = []
  && t.recovers = []
  && Float.equal t.drop 0.
  && t.drop_links = []
  && Float.equal t.duplicate 0.
  && t.partitions = []
  && (not (store_active t))
  && t.byz = []
  && t.byz_rules = []
  && t.byz_equiv = []

let valid_prob p = Float.is_finite p && p >= 0. && p <= 1.

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check_crashes = function
    | [] -> Ok ()
    | { processor; trigger } :: rest ->
        if processor < 1 then err "crash: processor ids start at 1"
        else begin
          match trigger with
          | At time when not (Float.is_finite time) || time < 0. ->
              err "crash:%d: time must be finite and >= 0" processor
          | After d when d < 0 ->
              err "crash:%d: delivery count must be >= 0" processor
          | At _ | After _ -> check_crashes rest
        end
  in
  let crashes_processor p =
    List.exists (fun (c : crash) -> c.processor = p) t.crashes
  in
  let rec check_recovers = function
    | [] -> Ok ()
    | ({ processor; time } : recover) :: rest ->
        if processor < 1 then err "recover: processor ids start at 1"
        else if (not (Float.is_finite time)) || time < 0. then
          err "recover:%d: time must be finite and >= 0" processor
        else if not (crashes_processor processor) then
          err "recover:%d: processor never crashes in this plan" processor
        else check_recovers rest
  in
  let rec check_links = function
    | [] -> Ok ()
    | ((src, dst), p) :: rest ->
        if src < 1 || dst < 1 then err "drop: processor ids start at 1"
        else if not (valid_prob p) then
          err "drop:%d,%d: probability must be in [0, 1]" src dst
        else check_links rest
  in
  let rec check_partitions = function
    | [] -> Ok ()
    | { lo; hi; from_time; heal_time } :: rest ->
        if lo < 1 || hi < lo then err "part: need 1 <= LO <= HI"
        else if
          (not (Float.is_finite from_time))
          || (not (Float.is_finite heal_time))
          || from_time < 0.
          || heal_time < from_time
        then err "part:%d-%d: need 0 <= T0 <= T1" lo hi
        else check_partitions rest
  in
  let rec check_outages = function
    | [] -> Ok ()
    | (t0, t1) :: rest ->
        if
          (not (Float.is_finite t0))
          || (not (Float.is_finite t1))
          || t0 < 0. || t1 < t0
        then err "sout: need 0 <= T0 <= T1"
        else check_outages rest
  in
  let check_store () =
    let slow_p, slow_d = t.store_slow in
    if not (valid_prob t.store_drop) then
      err "sdrop: probability must be in [0, 1]"
    else if not (valid_prob t.store_dup) then
      err "sdup: probability must be in [0, 1]"
    else if not (valid_prob slow_p) then
      err "sslow: probability must be in [0, 1]"
    else if (not (Float.is_finite slow_d)) || slow_d < 0. then
      err "sslow: extra delay must be finite and >= 0"
    else check_outages t.store_outages
  in
  let byz_processor p =
    List.exists (fun (c : crash) -> c.processor = p) t.byz
  in
  let rec distinct = function
    | [] -> true
    | p :: rest -> (not (List.mem p rest)) && distinct rest
  in
  let rec check_byz = function
    | [] -> Ok ()
    | ({ processor; trigger } : crash) :: rest ->
        if processor < 1 then err "byz: processor ids start at 1"
        else begin
          match trigger with
          | At time when not (Float.is_finite time) || time < 0. ->
              err "byz:%d: time must be finite and >= 0" processor
          | After d when d < 0 ->
              err "byz:%d: delivery count must be >= 0" processor
          | At _ | After _ -> check_byz rest
        end
  in
  let rec check_byz_rules = function
    | [] -> Ok ()
    | (processor, rule) :: rest ->
        if processor < 1 then err "byzval: processor ids start at 1"
        else if not (byz_processor processor) then
          err "byzval:%d: processor never turns Byzantine in this plan"
            processor
        else begin
          match rule with
          | Off_by 0 -> err "byzval:%d: off-by offset must be non-zero" processor
          | Off_by _ | Replay_stale | Max_int -> check_byz_rules rest
        end
  in
  let rec check_byz_equiv = function
    | [] -> Ok ()
    | processor :: rest ->
        if processor < 1 then err "byzeq: processor ids start at 1"
        else if not (List.mem_assoc processor t.byz_rules) then
          err "byzeq:%d: equivocation needs a byzval rewrite rule" processor
        else check_byz_equiv rest
  in
  let check_byz_statics () =
    if not (distinct (List.map (fun (c : crash) -> c.processor) t.byz)) then
      err "byz: at most one clause per processor"
    else if not (distinct (List.map fst t.byz_rules)) then
      err "byzval: at most one rewrite rule per processor"
    else if not (distinct t.byz_equiv) then
      err "byzeq: at most one clause per processor"
    else
      match check_byz t.byz with
      | Error _ as e -> e
      | Ok () -> (
          match check_byz_rules t.byz_rules with
          | Error _ as e -> e
          | Ok () -> check_byz_equiv t.byz_equiv)
  in
  match check_crashes t.crashes with
  | Error _ as e -> e
  | Ok () -> (
      match check_recovers t.recovers with
      | Error _ as e -> e
      | Ok () ->
      if not (valid_prob t.drop) then err "drop: probability must be in [0, 1]"
      else if not (valid_prob t.duplicate) then
        err "dup: probability must be in [0, 1]"
      else
        match check_links t.drop_links with
        | Error _ as e -> e
        | Ok () -> (
            match check_partitions t.partitions with
            | Error _ as e -> e
            | Ok () -> (
                match check_store () with
                | Error _ as e -> e
                | Ok () -> (
                    match check_byz_statics () with
                    | Error _ as e -> e
                    | Ok () -> Ok t))))

let drop_on t ~src ~dst =
  match List.assoc_opt (src, dst) t.drop_links with
  | Some p -> p
  | None -> t.drop

let partitioned t ~src ~dst ~at =
  List.exists
    (fun { lo; hi; from_time; heal_time } ->
      at >= from_time && at < heal_time
      && (src >= lo && src <= hi) <> (dst >= lo && dst <= hi))
    t.partitions

let store_down t ~at =
  List.exists (fun (t0, t1) -> at >= t0 && at < t1) t.store_outages

let processors_of (cs : crash list) =
  List.sort_uniq Int.compare (List.map (fun (c : crash) -> c.processor) cs)

let crash_processors t = processors_of t.crashes

let crash_count t = List.length (crash_processors t)

let byzantine_processors t = processors_of t.byz

let byz_count t = List.length (byzantine_processors t)

let byz_rule_of t p = List.assoc_opt p t.byz_rules

let equivocates t p = List.mem p t.byz_equiv

(* Large enough to wreck any naive aggregate, small enough that sums of a
   few of them never overflow 63-bit ints. *)
let byz_sentinel = 1 lsl 30

(* Deterministic payload rewrite: a pure function of (rule, equivocate,
   dst, v) — zero Rng draws, so Byzantine plans preserve the fault
   layer's determinism contract. Equivocation splits the receivers by id
   parity: the same logical send shows two different values to the two
   halves of the audience, the cheapest deterministic "different values
   to different receivers". *)
let apply_rule ~rule ~equivocate ~dst v =
  match rule with
  | Replay_stale -> if equivocate && dst land 1 = 1 then v else 0
  | Off_by k -> if equivocate && dst land 1 = 1 then v - k else v + k
  | Max_int -> if equivocate && dst land 1 = 1 then 0 else byz_sentinel

(* ------------------------------------------------------------------ *)
(* Textual form. Clause separator is '/', which %g float output never
   contains (unlike '+', which appears in exponents such as 1e+06). *)

let pp_clause ppf = function
  | `Crash { processor; trigger = At time } ->
      Format.fprintf ppf "crash:%d@@%g" processor time
  | `Crash { processor; trigger = After d } ->
      Format.fprintf ppf "crash:%d@@#%d" processor d
  | `Recover ({ processor; time } : recover) ->
      Format.fprintf ppf "recover:%d@@%g" processor time
  | `Drop p -> Format.fprintf ppf "drop:%g" p
  | `Drop_link ((src, dst), p) -> Format.fprintf ppf "drop:%d,%d:%g" src dst p
  | `Dup p -> Format.fprintf ppf "dup:%g" p
  | `Part { lo; hi; from_time; heal_time } ->
      Format.fprintf ppf "part:%d-%d@@%g,%g" lo hi from_time heal_time
  | `Store_drop p -> Format.fprintf ppf "sdrop:%g" p
  | `Store_dup p -> Format.fprintf ppf "sdup:%g" p
  | `Store_slow (p, d) -> Format.fprintf ppf "sslow:%g:%g" p d
  | `Store_out (t0, t1) -> Format.fprintf ppf "sout:%g,%g" t0 t1
  | `Byz { processor; trigger = At time } ->
      Format.fprintf ppf "byz:%d@@%g" processor time
  | `Byz { processor; trigger = After d } ->
      Format.fprintf ppf "byz:%d@@#%d" processor d
  | `Byz_val (p, Replay_stale) ->
      Format.fprintf ppf "byzval:%d:replay-stale" p
  | `Byz_val (p, Off_by k) -> Format.fprintf ppf "byzval:%d:off-by-%d" p k
  | `Byz_val (p, Max_int) -> Format.fprintf ppf "byzval:%d:max-int" p
  | `Byz_eq p -> Format.fprintf ppf "byzeq:%d" p

let clauses t =
  List.map (fun c -> `Crash c) t.crashes
  @ List.map (fun r -> `Recover r) t.recovers
  @ (if not (Float.equal t.drop 0.) then [ `Drop t.drop ] else [])
  @ List.map (fun l -> `Drop_link l) t.drop_links
  @ (if not (Float.equal t.duplicate 0.) then [ `Dup t.duplicate ] else [])
  @ List.map (fun p -> `Part p) t.partitions
  @ (if not (Float.equal t.store_drop 0.) then [ `Store_drop t.store_drop ]
     else [])
  @ (if not (Float.equal t.store_dup 0.) then [ `Store_dup t.store_dup ]
     else [])
  @ (if not (Float.equal (fst t.store_slow) 0.) then
       [ `Store_slow t.store_slow ]
     else [])
  @ List.map (fun w -> `Store_out w) t.store_outages
  @ List.map (fun b -> `Byz b) t.byz
  @ List.map (fun r -> `Byz_val r) t.byz_rules
  @ List.map (fun p -> `Byz_eq p) t.byz_equiv

let pp ppf t =
  match clauses t with
  | [] -> Format.pp_print_string ppf "none"
  | cs ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '/')
        pp_clause ppf cs

let to_string t = Format.asprintf "%a" pp t

let of_string s =
  let fail () = Error (Printf.sprintf "cannot parse fault plan %S" s) in
  let float_of x = float_of_string_opt (String.trim x) in
  let int_of x = int_of_string_opt (String.trim x) in
  let split2 c x =
    match String.index_opt x c with
    | None -> None
    | Some i ->
        Some (String.sub x 0 i, String.sub x (i + 1) (String.length x - i - 1))
  in
  let parse_clause acc clause =
    match acc with
    | Error _ as e -> e
    | Ok t -> (
        match split2 ':' clause with
        | None -> fail ()
        | Some (kind, rest) -> (
            match kind with
            | "crash" -> (
                match split2 '@' rest with
                | Some (p, at) -> (
                    let trigger =
                      if String.length at > 0 && at.[0] = '#' then
                        Option.map
                          (fun d -> After d)
                          (int_of (String.sub at 1 (String.length at - 1)))
                      else Option.map (fun x -> At x) (float_of at)
                    in
                    match (int_of p, trigger) with
                    | Some processor, Some trigger ->
                        Ok
                          {
                            t with
                            crashes = t.crashes @ [ { processor; trigger } ];
                          }
                    | _ -> fail ())
                | None -> fail ())
            | "recover" -> (
                match split2 '@' rest with
                | Some (p, at) -> (
                    match (int_of p, float_of at) with
                    | Some processor, Some time ->
                        Ok
                          {
                            t with
                            recovers = t.recovers @ [ { processor; time } ];
                          }
                    | _ -> fail ())
                | None -> fail ())
            | "drop" -> (
                match split2 ':' rest with
                | Some (link, prob) -> (
                    match (split2 ',' link, float_of prob) with
                    | Some (src, dst), Some p -> (
                        match (int_of src, int_of dst) with
                        | Some src, Some dst ->
                            Ok
                              {
                                t with
                                drop_links = t.drop_links @ [ ((src, dst), p) ];
                              }
                        | _ -> fail ())
                    | _ -> fail ())
                | None -> (
                    match float_of rest with
                    | Some p -> Ok { t with drop = p }
                    | None -> fail ()))
            | "dup" -> (
                match float_of rest with
                | Some p -> Ok { t with duplicate = p }
                | None -> fail ())
            | "sdrop" -> (
                match float_of rest with
                | Some p -> Ok { t with store_drop = p }
                | None -> fail ())
            | "sdup" -> (
                match float_of rest with
                | Some p -> Ok { t with store_dup = p }
                | None -> fail ())
            | "sslow" -> (
                match split2 ':' rest with
                | Some (p, d) -> (
                    match (float_of p, float_of d) with
                    | Some p, Some d -> Ok { t with store_slow = (p, d) }
                    | _ -> fail ())
                | None -> fail ())
            | "byz" -> (
                match split2 '@' rest with
                | Some (p, at) -> (
                    let trigger =
                      if String.length at > 0 && at.[0] = '#' then
                        Option.map
                          (fun d -> After d)
                          (int_of (String.sub at 1 (String.length at - 1)))
                      else Option.map (fun x -> At x) (float_of at)
                    in
                    match (int_of p, trigger) with
                    | Some processor, Some trigger ->
                        Ok { t with byz = t.byz @ [ { processor; trigger } ] }
                    | _ -> fail ())
                | None -> fail ())
            | "byzval" -> (
                match split2 ':' rest with
                | Some (p, rule) -> (
                    let rule =
                      match String.trim rule with
                      | "replay-stale" -> Some Replay_stale
                      | "max-int" -> Some Max_int
                      | r ->
                          let prefix = "off-by-" in
                          let pl = String.length prefix in
                          if
                            String.length r > pl
                            && String.sub r 0 pl = prefix
                          then
                            Option.map
                              (fun k -> Off_by k)
                              (int_of
                                 (String.sub r pl (String.length r - pl)))
                          else None
                    in
                    match (int_of p, rule) with
                    | Some processor, Some rule ->
                        Ok
                          {
                            t with
                            byz_rules = t.byz_rules @ [ (processor, rule) ];
                          }
                    | _ -> fail ())
                | None -> fail ())
            | "byzeq" -> (
                match int_of rest with
                | Some processor ->
                    Ok { t with byz_equiv = t.byz_equiv @ [ processor ] }
                | None -> fail ())
            | "sout" -> (
                match split2 ',' rest with
                | Some (t0, t1) -> (
                    match (float_of t0, float_of t1) with
                    | Some t0, Some t1 ->
                        Ok
                          {
                            t with
                            store_outages = t.store_outages @ [ (t0, t1) ];
                          }
                    | _ -> fail ())
                | None -> fail ())
            | "part" -> (
                match split2 '@' rest with
                | Some (range, times) -> (
                    match (split2 '-' range, split2 ',' times) with
                    | Some (lo, hi), Some (t0, t1) -> (
                        match
                          (int_of lo, int_of hi, float_of t0, float_of t1)
                        with
                        | Some lo, Some hi, Some from_time, Some heal_time ->
                            Ok
                              {
                                t with
                                partitions =
                                  t.partitions
                                  @ [ { lo; hi; from_time; heal_time } ];
                              }
                        | _ -> fail ())
                    | _ -> fail ())
                | None -> fail ())
            | _ -> fail ()))
  in
  if String.trim s = "none" then Ok none
  else if String.trim s = "" then fail ()
  else
    match
      List.fold_left parse_clause (Ok none)
        (String.split_on_char '/' (String.trim s))
    with
    | Error _ as e -> e
    | Ok t -> validate t
