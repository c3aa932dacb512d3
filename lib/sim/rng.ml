(* SplitMix64. Reference: Steele, Lea & Flood, "Fast Splittable
   Pseudorandom Number Generators", OOPSLA 2014. The constants below are the
   standard golden-gamma increment and the two mixing multipliers of the
   murmur3-style finalizer variant used by the reference implementation. *)

(* The 64-bit state lives in 8 bytes read and written with
   [Bytes.get_int64_ne]/[set_int64_ne], which stay unboxed inside a
   function: a [mutable int64] field would box a fresh Int64 on every
   draw. [mix64], [bits64], [bits] and [float] are inlined, so a draw
   that ends in an int or a float allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (bits64 t)

let copy = Bytes.copy

(* Stateless derivation: a stream that is a pure function of
   (seed, a, b), independent of any draw order elsewhere. Arrivals keys
   one per source on (origin, tag), so one origin's arrival times do not
   depend on how many other sources draw. Each coordinate is absorbed
   with a golden-gamma step + mix, SplitMix64's own sequence
   construction. *)
let keyed ~seed a b =
  let absorb s v = mix64 (Int64.add s (Int64.mul golden_gamma (Int64.of_int v))) in
  of_state (absorb (absorb (mix64 (Int64.of_int seed)) a) b)

(* Non-negative 62-bit int from the top bits (avoids sign issues). *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max = (1 lsl 62) - 1 in
  let limit = max - (max mod bound) in
  let v = ref (bits t) in
  while !v >= limit do
    v := bits t
  done;
  !v mod bound

let int_in t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
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
