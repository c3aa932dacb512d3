let quorums (module Q : Quorum_intf.S) ~n ~slots =
  let n = Q.supported_n n in
  let q = Q.create ~n in
  (n, List.init slots (fun slot -> Q.quorum q ~slot))

let well_formed (module Q : Quorum_intf.S) ~n ~slots =
  let n, qs = quorums (module Q) ~n ~slots in
  List.for_all
    (fun members ->
      members <> []
      && List.sort_uniq Int.compare members = members
      && List.for_all (fun e -> e >= 1 && e <= n) members)
    qs

(* Merge walk over two sorted, de-duplicated lists. *)
let rec disjoint a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | x :: a', y :: b' ->
      if x < y then disjoint a' b else if y < x then disjoint a b' else false

let first_violation (module Q : Quorum_intf.S) ~n ~slots =
  let _, qs = quorums (module Q) ~n ~slots in
  let sets = Array.of_list (List.map (List.sort_uniq Int.compare) qs) in
  let violation = ref None in
  (try
     for i = 0 to Array.length sets - 1 do
       for j = i + 1 to Array.length sets - 1 do
         if disjoint sets.(i) sets.(j) then begin
           violation := Some (i, j);
           raise Exit
         end
       done
     done
   with Exit -> ());
  !violation
