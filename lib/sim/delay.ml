type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Adversarial_jitter of float

let default = Constant 1.0

(* Delivery must be strictly after sending, otherwise quiescence detection
   could livelock on zero-delay self-messages. *)
let[@inline] floor_positive d = if d <= 0. then 1e-9 else d

(* Inlined, like [Rng.float], so a release build hands the sampled float
   to [Heap.push] unboxed. *)
let[@inline] sample t rng =
  let d =
    match t with
    | Constant d -> d
    | Uniform (lo, hi) ->
        if hi <= lo then lo else lo +. Rng.float rng (hi -. lo)
    | Exponential mean ->
        (* Inverse-CDF sampling; clamp u away from 0 to avoid log 0. *)
        let u = Float.max (Rng.float rng 1.0) 1e-12 in
        -.mean *. log u
    | Adversarial_jitter base ->
        if Rng.float rng 1.0 < 0.9 then base +. Rng.float rng base
        else base +. Rng.float rng (99. *. base)
  in
  floor_positive d

let pp ppf = function
  | Constant d -> Format.fprintf ppf "constant:%g" d
  | Uniform (lo, hi) -> Format.fprintf ppf "uniform:%g,%g" lo hi
  | Exponential m -> Format.fprintf ppf "exp:%g" m
  | Adversarial_jitter b -> Format.fprintf ppf "jitter:%g" b

let to_string t = Format.asprintf "%a" pp t

let of_string s =
  let fail () = Error (Printf.sprintf "cannot parse delay %S" s) in
  let out_of_range need = Error (Printf.sprintf "delay %S: %s" s need) in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let float_of s = float_of_string_opt (String.trim s) in
      (* A model must be able to draw a finite positive latency; the 1e-9
         floor in [sample] is for single zero draws, not for such input. *)
      let positive make =
        match float_of rest with
        | Some d when Float.is_finite d && d > 0. -> Ok (make d)
        | Some _ -> out_of_range "the parameter must be finite and > 0"
        | None -> fail ()
      in
      match kind with
      | "constant" -> positive (fun d -> Constant d)
      | "exp" -> positive (fun d -> Exponential d)
      | "jitter" -> positive (fun d -> Adversarial_jitter d)
      | "uniform" -> (
          match List.map float_of (String.split_on_char ',' rest) with
          | [ Some lo; Some hi ] ->
              if Float.is_finite hi && 0. <= lo && lo <= hi && hi > 0. then
                Ok (Uniform (lo, hi))
              else out_of_range "needs finite 0 <= LO <= HI with HI > 0"
          | _ -> fail ())
      | _ -> fail ())
