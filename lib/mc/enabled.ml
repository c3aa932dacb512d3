type key =
  | Link of int * int
  | Linkn of int * int * int
  | Timer
  | Crash of int
  | Recover of int
  | Byz of int

let of_choice (c : Sim.Network.choice) =
  if c.link_src = 0 && c.link_dst = 0 then Timer
  else if c.link_seq >= 0 then Linkn (c.link_src, c.link_dst, c.link_seq)
  else Link (c.link_src, c.link_dst)

let equal a b =
  match (a, b) with
  | Link (s1, d1), Link (s2, d2) -> Int.equal s1 s2 && Int.equal d1 d2
  | Linkn (s1, d1, k1), Linkn (s2, d2, k2) ->
      Int.equal s1 s2 && Int.equal d1 d2 && Int.equal k1 k2
  | Timer, Timer -> true
  | Crash p, Crash q | Recover p, Recover q | Byz p, Byz q -> Int.equal p q
  | (Link _ | Linkn _ | Timer | Crash _ | Recover _ | Byz _), _ -> false

let compare (a : key) (b : key) =
  let rank = function
    | Link _ -> 0
    | Linkn _ -> 1
    | Timer -> 2
    | Crash _ -> 3
    | Recover _ -> 4
    | Byz _ -> 5
  in
  match (a, b) with
  | Link (s1, d1), Link (s2, d2) -> Stdlib.compare (s1, d1) (s2, d2)
  | Linkn (s1, d1, k1), Linkn (s2, d2, k2) ->
      Stdlib.compare (s1, d1, k1) (s2, d2, k2)
  | Crash p, Crash q -> Stdlib.compare p q
  | Recover p, Recover q -> Stdlib.compare p q
  | Byz p, Byz q -> Stdlib.compare p q
  | _ -> Stdlib.compare (rank a) (rank b)

let to_token = function
  | Link (s, d) -> Printf.sprintf "%d>%d" s d
  | Linkn (s, d, k) -> Printf.sprintf "%d>%d#%d" s d k
  | Timer -> "@"
  | Crash p -> Printf.sprintf "!%d" p
  | Recover p -> Printf.sprintf "^%d" p
  | Byz p -> Printf.sprintf "*%d" p

let of_token s =
  let len = String.length s in
  if len = 0 then Error "empty decision token"
  else if s = "@" then Ok Timer
  else if s.[0] = '!' then
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some p when p >= 1 -> Ok (Crash p)
    | _ -> Error (Printf.sprintf "bad crash token %S (want !P)" s)
  else if s.[0] = '^' then
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some p when p >= 1 -> Ok (Recover p)
    | _ -> Error (Printf.sprintf "bad recover token %S (want ^P)" s)
  else if s.[0] = '*' then
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some p when p >= 1 -> Ok (Byz p)
    | _ -> Error (Printf.sprintf "bad byz token %S (want *P)" s)
  else
    match String.index_opt s '>' with
    | None ->
        Error
          (Printf.sprintf "bad decision token %S (want S>D, S>D#K, @, !P, ^P or *P)"
             s)
    | Some i -> (
        let parse_ends ~stop =
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt (String.sub s (i + 1) (stop - i - 1)) )
        in
        match String.index_opt s '#' with
        | None -> (
            match parse_ends ~stop:len with
            | Some src, Some dst when src >= 1 && dst >= 1 ->
                Ok (Link (src, dst))
            | _ -> Error (Printf.sprintf "bad link token %S (want S>D)" s))
        | Some j -> (
            match
              ( parse_ends ~stop:j,
                int_of_string_opt (String.sub s (j + 1) (len - j - 1)) )
            with
            | (Some src, Some dst), Some seq when src >= 1 && dst >= 1 && seq >= 0
              ->
                Ok (Linkn (src, dst, seq))
            | _ -> Error (Printf.sprintf "bad link token %S (want S>D#K)" s)))

(* Receiver-locality heuristic: two deliveries commute when neither
   touches a processor the other reads or writes. A delivery to [d] runs
   [d]'s handler, which reads state at [d] and may depend on what [d]
   previously heard from anyone — so sharing a destination, or delivering
   *to* the other's sender (changing what that sender says next), is
   dependent. Timers are conservatively dependent with everything: a
   callback may touch arbitrary processors. A crash of [p] commutes with
   any delivery not involving [p], and two crashes always commute (crash
   is silent in this model; detection happens via timers). A recovery
   behaves like a crash for locality: it only touches the revived
   processor, and so does turning a processor Byzantine (it rewrites
   only that processor's future sends). Linkn keys (individually enabled messages to an unordered
   destination) project onto their (src, dst) for locality — two of them
   on the same link are exactly the reorderings the unordered
   declaration exists to explore, hence dependent. *)
let ends = function
  | Link (s, d) | Linkn (s, d, _) -> Some (s, d)
  | Timer | Crash _ | Recover _ | Byz _ -> None

let independent a b =
  match (a, b) with
  | Timer, _ | _, Timer -> false
  | (Crash p | Recover p | Byz p), (Crash q | Recover q | Byz q) -> p <> q
  | (Crash p | Recover p | Byz p), other | other, (Crash p | Recover p | Byz p)
    -> (
      match ends other with Some (s, d) -> p <> s && p <> d | None -> false)
  | a, b -> (
      match (ends a, ends b) with
      | Some (s1, d1), Some (s2, d2) -> d1 <> d2 && d1 <> s2 && d2 <> s1
      | _ -> false)

let pp ppf k = Format.pp_print_string ppf (to_token k)
