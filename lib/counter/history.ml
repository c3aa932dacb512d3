type op = {
  origin : int;
  value : int;
  invoked_at : float;
  completed_at : float;
}

type verdict = Linearizable | Violation of op * op

(* Total, deterministic orders so verdicts and witnesses are a pure
   function of the history multiset, never of input list order. *)
let by_invocation a b =
  match Float.compare a.invoked_at b.invoked_at with
  | 0 -> (
      match Float.compare a.completed_at b.completed_at with
      | 0 -> (
          match Int.compare a.value b.value with
          | 0 -> Int.compare a.origin b.origin
          | c -> c)
      | c -> c)
  | c -> c

let by_completion a b =
  match Float.compare a.completed_at b.completed_at with
  | 0 -> (
      match Float.compare a.invoked_at b.invoked_at with
      | 0 -> (
          match Int.compare a.value b.value with
          | 0 -> Int.compare a.origin b.origin
          | c -> c)
      | c -> c)
  | c -> c

(* Sorts [a] in place unless it already is in [cmp] order: the open
   loop's completions arrive sorted, and a serialising counter's
   invocations too. *)
let sort_unless_sorted cmp a =
  let sorted = ref true and i = ref 1 in
  while !sorted && !i < Array.length a do
    if cmp a.(!i - 1) a.(!i) > 0 then sorted := false;
    incr i
  done;
  if not !sorted then Array.sort cmp a

(* The history sorted once by each key: every analysis below reads these
   two arrays. *)
let orders ops =
  let inv = Array.of_list ops in
  let comp = Array.copy inv in
  sort_unless_sorted by_invocation inv;
  sort_unless_sorted by_completion comp;
  (inv, comp)

exception Found of op * op

(* Sweep operations in invocation order, maintaining the running maximum
   value over all operations already completed strictly before the
   current invocation: a violation exists iff that maximum ever exceeds
   the invoked operation's value. The witness [a] is the largest value
   completed before [b], the first violated operation in invocation
   order. *)
let sweep inv comp =
  let len = Array.length inv in
  let j = ref 0 in
  let best = ref None in
  try
    Array.iter
      (fun b ->
        while !j < len && comp.(!j).completed_at < b.invoked_at do
          (match !best with
          | Some a when a.value >= comp.(!j).value -> ()
          | Some _ | None -> best := Some comp.(!j));
          incr j
        done;
        match !best with
        | Some a when a.value > b.value -> raise (Found (a, b))
        | Some _ | None -> ())
      inv;
    Linearizable
  with Found (a, b) -> Violation (a, b)

let check ops =
  let inv, comp = orders ops in
  sweep inv comp

let is_linearizable ops = match check ops with
  | Linearizable -> true
  | Violation _ -> false

(* Exactly the values 0 .. len-1: each in range and none seen twice. *)
let contiguous inv =
  let len = Array.length inv in
  let seen = Bytes.make len '\000' in
  Array.for_all
    (fun o ->
      let fresh =
        o.value >= 0 && o.value < len && Bytes.get seen o.value = '\000'
      in
      if fresh then Bytes.set seen o.value '\001';
      fresh)
    inv

let values_contiguous ops = contiguous (Array.of_list ops)

(* Peak and time-weighted mean overlap from one merge of the two orders.
   Completions go first at equal times: an op ending exactly when another
   starts does not overlap it. Every event at one instant after the
   first adds [cur * 0.] to the area, so the mean does not depend on how
   ties are broken, only the peak does. *)
let completion_next inv comp i j =
  i = Array.length inv
  || j < Array.length comp
     && Float.compare comp.(j).completed_at inv.(i).invoked_at <= 0

let overlap inv comp =
  let len = Array.length inv in
  if len = 0 then (0, 0.)
  else begin
    let t0 =
      if completion_next inv comp 0 0 then comp.(0).completed_at
      else inv.(0).invoked_at
    in
    let i = ref 0 and j = ref 0 in
    let cur = ref 0 and peak = ref 0 in
    let area = ref 0. and prev = ref t0 in
    while !i < len || !j < len do
      let completes = completion_next inv comp !i !j in
      let t = if completes then comp.(!j).completed_at else inv.(!i).invoked_at in
      area := !area +. (float_of_int !cur *. (t -. !prev));
      prev := t;
      if completes then begin
        decr cur;
        incr j
      end
      else begin
        incr cur;
        if !cur > !peak then peak := !cur;
        incr i
      end
    done;
    let span = !prev -. t0 in
    (!peak, if span > 0. then !area /. span else 0.)
  end

let concurrency_profile ops =
  let inv, comp = orders ops in
  fst (overlap inv comp)

let mean_overlap ops =
  let inv, comp = orders ops in
  snd (overlap inv comp)

type analysis = {
  verdict : verdict;
  quiescent : bool;
  linearizable : bool;
  peak_overlap : int;
  mean_overlap : float;
}

let analyze ops =
  let inv, comp = orders ops in
  let verdict = sweep inv comp in
  let quiescent = contiguous inv in
  let peak_overlap, mean_overlap = overlap inv comp in
  {
    verdict;
    quiescent;
    linearizable =
      (quiescent && match verdict with Linearizable -> true | Violation _ -> false);
    peak_overlap;
    mean_overlap;
  }

let pp_op ppf o =
  Format.fprintf ppf "p%d got %d [%.2f, %.2f]" o.origin o.value o.invoked_at
    o.completed_at

let pp_verdict ppf = function
  | Linearizable -> Format.pp_print_string ppf "linearizable"
  | Violation (a, b) ->
      Format.fprintf ppf "NOT linearizable: (%a) precedes (%a) in real time"
        pp_op a pp_op b
