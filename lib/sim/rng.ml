(* SplitMix64. Reference: Steele, Lea & Flood, "Fast Splittable
   Pseudorandom Number Generators", OOPSLA 2014. The constants below are the
   standard golden-gamma increment and the two mixing multipliers of the
   murmur3-style finalizer variant used by the reference implementation. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create ~seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let copy t = { state = t.state }

(* Stateless derivation: a stream that is a pure function of
   (seed, a, b), independent of any draw order elsewhere. Arrivals keys
   one per source on (origin, tag), so one origin's arrival times do not
   depend on how many other sources draw. Each coordinate is absorbed
   with a golden-gamma step + mix, SplitMix64's own sequence
   construction. *)
let keyed ~seed a b =
  let absorb s v = mix64 (Int64.add s (Int64.mul golden_gamma (Int64.of_int v))) in
  { state = absorb (absorb (mix64 (Int64.of_int seed)) a) b }

(* Non-negative 62-bit int from the top bits (avoids sign issues). *)
let bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max = (1 lsl 62) - 1 in
  let limit = max - (max mod bound) in
  let rec draw () =
    let v = bits t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let int_in t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  (* 53 random bits mapped to [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (float_of_int v /. 9007199254740992.)

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
