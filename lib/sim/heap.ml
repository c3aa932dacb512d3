(* Structure-of-arrays 4-ary min-heap.

   The event queue is the hottest structure in the simulator, so its layout
   is chosen for throughput rather than elegance:

   - priorities live in a flat [float array] (unboxed storage — the boxed
     [{prio; seq; value}] entry records of the original binary heap cost a
     two-block allocation per push and a pointer chase per comparison);
   - sequence numbers and values live in parallel [int array] / ['a array]
     columns, so a steady-state push/pop cycle allocates nothing at all;
   - the heap is 4-ary: half the depth of a binary heap, which trades a few
     extra comparisons per level for far fewer cache-missing levels. Sift
     loops move a "hole" instead of swapping, one write per level.

   The ordering contract is unchanged from the original binary heap: pop
   returns the minimum (prio, seq) pair, and [seq] is the global insertion
   counter, so equal priorities pop FIFO. Because (prio, seq) is a total
   order, the internal arity/layout cannot affect pop order — seeded runs
   are bit-identical to the old implementation. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable values : 'a array;
      (* may lag [prios] in length until the first push supplies a filler *)
  mutable len : int;
  mutable next_seq : int;
}

let create ?(capacity = 0) () =
  let cap = max capacity 0 in
  {
    prios = Array.make cap 0.0;
    seqs = Array.make cap 0;
    values = [||];
    len = 0;
    next_seq = 0;
  }

let size t = t.len

let is_empty t = t.len = 0

let capacity t = Array.length t.prios

(* Grows the columns, using [fill] as the filler for fresh value slots. *)
let ensure_capacity t fill =
  let cap = Array.length t.prios in
  if t.len >= cap then begin
    let new_cap = if cap = 0 then 16 else 2 * cap in
    let prios = Array.make new_cap 0.0 in
    let seqs = Array.make new_cap 0 in
    Array.blit t.prios 0 prios 0 t.len;
    Array.blit t.seqs 0 seqs 0 t.len;
    t.prios <- prios;
    t.seqs <- seqs
  end;
  if Array.length t.values < Array.length t.prios then begin
    let values = Array.make (Array.length t.prios) fill in
    Array.blit t.values 0 values 0 t.len;
    t.values <- values
  end

(* [push] and [top_prio] take or return a float across the module
   boundary: inlined, a release build keeps it unboxed. *)
let[@inline] push t ~prio value =
  ensure_capacity t value;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let prios = t.prios and seqs = t.seqs and values = t.values in
  (* Sift the hole up from the end; parents shift down into it. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pp = prios.(parent) in
    if prio < pp || (prio = pp && seq < seqs.(parent)) then begin
      prios.(!i) <- pp;
      seqs.(!i) <- seqs.(parent);
      values.(!i) <- values.(parent);
      i := parent
    end
    else moving := false
  done;
  prios.(!i) <- prio;
  seqs.(!i) <- seq;
  values.(!i) <- value

(* Re-inserts the entry at slot [from] (outside the live prefix) starting
   from a hole at the root. Taking the slot rather than its priority keeps
   the float unboxed: a float argument to this non-inlined function would
   be boxed on every pop. *)
let sift_down_from_root t from =
  let prios = t.prios and seqs = t.seqs and values = t.values in
  let prio = prios.(from) and seq = seqs.(from) and value = values.(from) in
  let len = t.len in
  let i = ref 0 in
  let moving = ref true in
  while !moving do
    let base = (4 * !i) + 1 in
    if base >= len then moving := false
    else begin
      let best = ref base in
      let last = min (base + 3) (len - 1) in
      for c = base + 1 to last do
        let cp = prios.(c) in
        let bp = prios.(!best) in
        if cp < bp || (cp = bp && seqs.(c) < seqs.(!best)) then best := c
      done;
      let b = !best in
      let bp = prios.(b) in
      if bp < prio || (bp = prio && seqs.(b) < seq) then begin
        prios.(!i) <- bp;
        seqs.(!i) <- seqs.(b);
        values.(!i) <- values.(b);
        i := b
      end
      else moving := false
    end
  done;
  prios.(!i) <- prio;
  seqs.(!i) <- seq;
  values.(!i) <- value

let peek t = if t.len = 0 then None else Some (t.prios.(0), t.values.(0))

let[@inline] top_prio t =
  if t.len = 0 then invalid_arg "Heap.top_prio: empty heap";
  t.prios.(0)

let pop_top t =
  if t.len = 0 then invalid_arg "Heap.pop_top: empty heap";
  let value = t.values.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then sift_down_from_root t last;
  value

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) in
    Some (prio, pop_top t)
  end

let clear t =
  t.len <- 0;
  t.next_seq <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.prios.(i) t.values.(i)
  done

let to_sorted_list t =
  let items =
    Array.init t.len (fun i -> (t.prios.(i), t.seqs.(i), t.values.(i)))
  in
  Array.sort
    (fun (p1, s1, _) (p2, s2, _) ->
      if p1 < p2 then -1
      else if p1 > p2 then 1
      else Int.compare s1 s2)
    items;
  Array.to_list (Array.map (fun (p, _, v) -> (p, v)) items)
