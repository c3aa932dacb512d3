(* R1 — domain escape.

   Mutable state captured by a closure handed to Domain.spawn and also
   touched outside it is a data race unless every access carries
   syntactic protection evidence: an Atomic (never recorded as mutable
   access), a Mutex bracket in the same function (lock, access,
   unlock), or the join-publication discipline (workers write,
   the coordinator reads only after Domain.join — Analysis.Replicate).
   Anything else needs its ownership argument written down in the
   [@dlint.allow "R1: ..."] ledger. One diagnostic per root per file,
   listing the racy fields, anchored at the earliest unprotected
   access. *)

let is_worker (a : Dataflow.access) =
  match a.Dataflow.side with Worker -> true | Coordinator -> false

let is_write (a : Dataflow.access) =
  match a.Dataflow.kind with Write -> true | Read -> false

let line (l : Ppxlib.Location.t) = l.loc_start.pos_lnum

let earliest l =
  match l with
  | [] -> None
  | a :: rest ->
      Some
        (List.fold_left
           (fun (best : Dataflow.access) (x : Dataflow.access) ->
             if x.Dataflow.offset < best.Dataflow.offset then x else best)
           a rest)

(* A key is racy when it is written at all and either (a) an unprotected
   coordinator access coexists with any worker access, or (b) a worker
   performs an unprotected non-indexed write — the shared-accumulator
   shape, racy between sibling workers even if the coordinator waits for
   the join. Indexed worker writes are exempt from (b): per-index
   ownership (worker w owns slot w) is the engine's sanctioned sharding
   pattern, and (a) still catches a coordinator reading too early. *)
let racy_key accesses k =
  let of_key =
    List.filter (fun (a : Dataflow.access) -> String.equal a.Dataflow.key k)
      accesses
  in
  let w = List.filter is_worker of_key in
  let c = List.filter (fun a -> not (is_worker a)) of_key in
  let w_un = List.filter (fun (a : Dataflow.access) -> not a.Dataflow.locked) w in
  let c_un =
    List.filter
      (fun (a : Dataflow.access) ->
        (not a.Dataflow.locked) && not a.Dataflow.post_join)
      c
  in
  let direct_write =
    List.exists
      (fun (a : Dataflow.access) -> is_write a && not a.Dataflow.indexed)
      w_un
  in
  let both_sides =
    match (w, c_un) with _ :: _, _ :: _ -> true | _, _ -> false
  in
  if List.exists is_write of_key && (both_sides || direct_write) then
    Some (k, of_key, w_un, c_un)
  else None

let check ctx str =
  let info = Dataflow.analyse str in
  if info.Dataflow.spawns > 0 then begin
    let accesses = info.Dataflow.accesses in
    let keys =
      List.sort_uniq String.compare
        (List.map (fun (a : Dataflow.access) -> a.Dataflow.key) accesses)
    in
    let racy = List.filter_map (racy_key accesses) keys in
    let root_of (_, l, _, _) = (List.hd l : Dataflow.access).Dataflow.root in
    let roots = List.sort_uniq String.compare (List.map root_of racy) in
    List.iter
      (fun root ->
        let mine =
          List.filter (fun r -> String.equal (root_of r) root) racy
        in
        let keys_s =
          String.concat ", " (List.map (fun (k, _, _, _) -> k) mine)
        in
        let anchors =
          match List.concat_map (fun (_, _, w_un, _) -> w_un) mine with
          | [] -> List.concat_map (fun (_, _, _, c_un) -> c_un) mine
          | w -> w
        in
        match earliest anchors with
        | None -> ()
        | Some anchor ->
            let all = List.concat_map (fun (_, l, _, _) -> l) mine in
            let side_s, other =
              match anchor.Dataflow.side with
              | Dataflow.Worker ->
                  ( "inside the spawned closure",
                    earliest (List.filter (fun a -> not (is_worker a)) all) )
              | Dataflow.Coordinator ->
                  ( "outside the spawned closure",
                    earliest (List.filter is_worker all) )
            in
            let other_s =
              match other with
              | Some o ->
                  Printf.sprintf "; the other side touches it at line %d"
                    (line o.Dataflow.loc)
              | None -> ""
            in
            Rule.emit ctx ~loc:anchor.Dataflow.loc ~rule:"R1"
              ~message:
                (Printf.sprintf
                   "mutable state '%s' crosses the Domain.spawn boundary \
                    without protection (%s) — accessed %s%s"
                   root keys_s side_s other_s)
              ~hint:
                "wrap it in Atomic.t, bracket both sides with the shared \
                 Mutex, publish only through writes-before-join / \
                 reads-after-join, or record the ownership argument in \
                 [@dlint.allow \"R1: ...\"]")
      roots
  end

let rule =
  {
    Rule.id = "R1";
    name = "domain-escape";
    summary =
      "mutable state shared across Domain.spawn must be protected \
       (Atomic, the shared Mutex bracket, or join publication) or \
       ledgered";
    check;
  }
