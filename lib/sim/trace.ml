type event = {
  seq : int;
  time : float;
  src : int;
  dst : int;
  tag : string;
  parent : int;
}

type fault_kind = Dropped | Duplicated | Crashed | Recovered | Turned_byzantine | Corrupted

type fault = { fault_time : float; fault_src : int; fault_dst : int; kind : fault_kind }

(* Events are stored in a growable array (chronological order, so no
   List.rev pass): recording a message on the hot delivery path is one
   array write, with a doubling copy only on growth. Fault annotations are
   rare, so a list is fine there. *)
type t = {
  op_index : int;
  origin : int;
  start_time : float;
  mutable events_arr : event array;
  mutable count : int;
  mutable faults_rev : fault list;
}

let create ?(start_time = 0.) ~op_index ~origin () =
  { op_index; origin; start_time; events_arr = [||]; count = 0; faults_rev = [] }

let op_index t = t.op_index

let origin t = t.origin

let record t e =
  let cap = Array.length t.events_arr in
  if t.count >= cap then begin
    let arr = Array.make (if cap = 0 then 16 else 2 * cap) e in
    Array.blit t.events_arr 0 arr 0 t.count;
    t.events_arr <- arr
  end;
  t.events_arr.(t.count) <- e;
  t.count <- t.count + 1

let events t = Array.to_list (Array.sub t.events_arr 0 t.count)

let message_count t = t.count

let record_fault t f = t.faults_rev <- f :: t.faults_rev

let faults t = List.rev t.faults_rev

let fault_count t = List.length t.faults_rev

let fault_kind_label = function
  | Dropped -> "dropped"
  | Duplicated -> "duplicated"
  | Crashed -> "crashed"
  | Recovered -> "recovered"
  | Turned_byzantine -> "byzantine"
  | Corrupted -> "corrupted"

let duration t =
  if t.count = 0 then 0. else t.events_arr.(t.count - 1).time -. t.start_time

let processors t =
  List.sort_uniq Int.compare
    (t.origin :: List.concat_map (fun e -> [ e.src; e.dst ]) (events t))

let touches t q =
  let rec from i =
    i < t.count
    &&
    let e = t.events_arr.(i) in
    e.src = q || e.dst = q || from (i + 1)
  in
  t.origin = q || from 0

(* The Hot Spot pass. Trace number k of the list stamps every processor
   it touches with k; a processor still stamped k - 1 is one it shares
   with the trace before it. Each trace is scanned once and no pair
   allocates anything. Stamps live in an array indexed by id minus the
   smallest id in the list, unless the ids spread over more than four
   slots per processor occurrence (sparse, huge or mixed-sign ids), where
   the array would dwarf the traces; those go to a hash table. *)
type stamps = Dense of int * int array | Sparse of (int, int) Hashtbl.t

let stamps_for traces =
  let lo = ref max_int and hi = ref min_int and seen = ref 0 in
  List.iter
    (fun t ->
      lo := Int.min !lo t.origin;
      hi := Int.max !hi t.origin;
      for i = 0 to t.count - 1 do
        let e = t.events_arr.(i) in
        lo := Int.min !lo (Int.min e.src e.dst);
        hi := Int.max !hi (Int.max e.src e.dst)
      done;
      seen := !seen + 1 + (2 * t.count))
    traces;
  (* [!hi - !lo] wraps to a negative int when the span exceeds max_int. *)
  let span = !hi - !lo in
  if span >= 0 && span < 4 * !seen then Dense (!lo, Array.make (span + 1) 0)
  else Sparse (Hashtbl.create 64)

(* Stamp processor [x] with [k]; return its previous stamp (0 if none). *)
let[@inline] restamp stamps x k =
  match stamps with
  | Dense (lo, arr) ->
      let old = arr.(x - lo) in
      arr.(x - lo) <- k;
      old
  | Sparse h ->
      let old = Option.value (Hashtbl.find_opt h x) ~default:0 in
      Hashtbl.replace h x k;
      old

(* Stamp all of [t]'s processors with [k]; true iff one carried [k - 1]. *)
let stamp stamps t k =
  let shared = ref (restamp stamps t.origin k = k - 1) in
  for i = 0 to t.count - 1 do
    let e = t.events_arr.(i) in
    if restamp stamps e.src k = k - 1 then shared := true;
    if restamp stamps e.dst k = k - 1 then shared := true
  done;
  !shared

(* Disjoint consecutive pairs, chronological; with [~first] it returns
   at the first one. *)
let scan_pairs ~first traces =
  match traces with
  | [] | [ _ ] -> []
  | t0 :: rest ->
      let stamps = stamps_for traces in
      ignore (stamp stamps t0 1);
      let rec walk k prev acc = function
        | [] -> List.rev acc
        | t :: rest ->
            if stamp stamps t k then walk (k + 1) t acc rest
            else if first then [ (prev, t) ]
            else walk (k + 1) t ((prev, t) :: acc) rest
      in
      walk 2 t0 [] rest

let disjoint_pairs traces = scan_pairs ~first:false traces

let chain_intersects traces = scan_pairs ~first:true traces = []

let intersects a b = chain_intersects [ a; b ]

let pp ppf t =
  Format.fprintf ppf "@[<v>op #%d initiated by processor %d (%d messages)@,"
    t.op_index t.origin t.count;
  List.iter
    (fun e ->
      Format.fprintf ppf "  %4d -(%s)-> %-4d @@ t=%.3f@," e.src e.tag e.dst
        e.time)
    (events t);
  List.iter
    (fun f ->
      Format.fprintf ppf "  %4d ~(%s)~> %-4d @@ t=%.3f@," f.fault_src
        (fault_kind_label f.kind) f.fault_dst f.fault_time)
    (faults t);
  Format.fprintf ppf "@]"

let pp_lanes ppf t =
  let procs = processors t in
  let lane_width = 8 in
  let column =
    let table = Hashtbl.create 16 in
    List.iteri (fun i p -> Hashtbl.replace table p i) procs;
    fun p -> Hashtbl.find table p
  in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%s@,"
    (String.concat ""
       (List.map
          (fun p -> Printf.sprintf "%-*s" lane_width ("p" ^ string_of_int p))
          procs));
  List.iter
    (fun e ->
      let a = column e.src and b = column e.dst in
      let lo = min a b and hi = max a b in
      let line = Bytes.make (lane_width * List.length procs) ' ' in
      for i = (lo * lane_width) + 1 to (hi * lane_width) - 1 do
        Bytes.set line i '-'
      done;
      Bytes.set line (a * lane_width) '*';
      Bytes.set line (b * lane_width) (if b > a then '>' else '<');
      (* Self-sends: both roles on one lane. *)
      if a = b then Bytes.set line (a * lane_width) '@';
      Format.fprintf ppf "%s %s t=%.1f@," (Bytes.to_string line) e.tag e.time)
    (events t);
  Format.fprintf ppf "@]"

let to_dot t =
  (* One DAG node per processor occurrence: a processor that receives a
     message after it already sent from its current occurrence starts a
     new occurrence (e.g. the initiator reappearing to receive the
     value). *)
  let buf = Buffer.create 512 in
  let current : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let has_outgoing : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let next_occ = ref 0 in
  let fresh proc =
    let occ = !next_occ in
    incr next_occ;
    Hashtbl.replace current proc occ;
    Buffer.add_string buf
      (Printf.sprintf "  o%d [label=\"%d\"];\n" occ proc);
    occ
  in
  let occurrence_for_send proc =
    match Hashtbl.find_opt current proc with
    | Some occ -> occ
    | None -> fresh proc
  in
  let occurrence_for_receive proc =
    match Hashtbl.find_opt current proc with
    | Some occ when not (Hashtbl.mem has_outgoing occ) -> occ
    | Some _ | None -> fresh proc
  in
  Buffer.add_string buf "digraph inc_process {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=circle];\n";
  ignore (fresh t.origin);
  List.iter
    (fun e ->
      let src_occ = occurrence_for_send e.src in
      Hashtbl.replace has_outgoing src_occ ();
      let dst_occ = occurrence_for_receive e.dst in
      Buffer.add_string buf
        (Printf.sprintf "  o%d -> o%d [label=\"%s@%.1f\"];\n" src_occ dst_occ
           e.tag e.time))
    (events t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
