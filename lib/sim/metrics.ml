type t = {
  n : int;
  mutable sent : int array;  (* index = processor id; slot 0 unused *)
  mutable recv : int array;
  mutable total : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable crashes : int;
  mutable recoveries : int;
  mutable emergency_retirements : int;
  mutable byzantine : int;
  mutable corruptions : int;
}

let create ~n =
  {
    n;
    sent = Array.make (n + 2) 0;
    recv = Array.make (n + 2) 0;
    total = 0;
    dropped = 0;
    duplicated = 0;
    crashes = 0;
    recoveries = 0;
    emergency_retirements = 0;
    byzantine = 0;
    corruptions = 0;
  }

let n t = t.n

let grow t p =
  let cap = Array.length t.sent in
  if p >= cap then begin
    let new_cap = max (p + 1) (2 * cap) in
    let sent = Array.make new_cap 0 and recv = Array.make new_cap 0 in
    Array.blit t.sent 0 sent 0 cap;
    Array.blit t.recv 0 recv 0 cap;
    t.sent <- sent;
    t.recv <- recv
  end

let on_send t p =
  if p < 1 then invalid_arg "Metrics.on_send: processor ids start at 1";
  grow t p;
  t.sent.(p) <- t.sent.(p) + 1;
  t.total <- t.total + 1

let on_recv t p =
  if p < 1 then invalid_arg "Metrics.on_recv: processor ids start at 1";
  grow t p;
  t.recv.(p) <- t.recv.(p) + 1

let on_drop t = t.dropped <- t.dropped + 1

let on_duplicate t = t.duplicated <- t.duplicated + 1

let on_crash t = t.crashes <- t.crashes + 1

let on_recover t = t.recoveries <- t.recoveries + 1

let on_emergency_retirement t =
  t.emergency_retirements <- t.emergency_retirements + 1

let on_byzantine t = t.byzantine <- t.byzantine + 1

let on_corruption t = t.corruptions <- t.corruptions + 1

let byzantine t = t.byzantine

let corruptions t = t.corruptions

let dropped t = t.dropped

let duplicated t = t.duplicated

let crashes t = t.crashes

let recoveries t = t.recoveries

let emergency_retirements t = t.emergency_retirements

let sent t p = if p < Array.length t.sent then t.sent.(p) else 0

let received t p = if p < Array.length t.recv then t.recv.(p) else 0

let load t p = sent t p + received t p

let total_messages t = t.total

let total_load t =
  let acc = ref 0 in
  Array.iter (fun c -> acc := !acc + c) t.sent;
  Array.iter (fun c -> acc := !acc + c) t.recv;
  !acc

let average_load t = if t.n = 0 then 0. else float_of_int (total_load t) /. float_of_int t.n

let bottleneck t =
  let best_p = ref 0 and best = ref 0 in
  for p = 1 to Array.length t.sent - 1 do
    let l = load t p in
    if l > !best then begin
      best := l;
      best_p := p
    end
  done;
  (!best_p, !best)

let loads t =
  let acc = ref [] in
  for p = Array.length t.sent - 1 downto 1 do
    let l = load t p in
    if l > 0 then acc := (p, l) :: !acc
  done;
  !acc

let load_array t =
  Array.init (t.n + 1) (fun p -> if p = 0 then 0 else load t p)

let overflow_processors t =
  let count = ref 0 in
  for p = t.n + 1 to Array.length t.sent - 1 do
    if load t p > 0 then incr count
  done;
  !count

let checksum t =
  (* FNV-1a over the (p, sent, recv) triples of every processor that moved
     a message, ascending id. Two runs agree iff their full load vectors
     agree — the compact fingerprint the determinism regression pins. *)
  let h = ref 0x1234_5678_9abc_def in
  let mix v =
    h := !h lxor v;
    h := !h * 0x100000001b3
  in
  for p = 1 to Array.length t.sent - 1 do
    if t.sent.(p) <> 0 || t.recv.(p) <> 0 then begin
      mix p;
      mix t.sent.(p);
      mix t.recv.(p)
    end
  done;
  (* Fault counters join the fingerprint only when a fault actually fired,
     so fault-free runs keep their pre-fault-layer golden checksums. *)
  if t.dropped <> 0 || t.duplicated <> 0 || t.crashes <> 0 then begin
    mix 0x6661756c74;  (* "fault" *)
    mix t.dropped;
    mix t.duplicated;
    mix t.crashes
  end;
  (* Recovery-era counters get their own guarded block so every pre-existing
     run — fault-free or crash-only — keeps its historical checksum. *)
  if t.recoveries <> 0 || t.emergency_retirements <> 0 then begin
    mix 0x7265766976;  (* "reviv" *)
    mix t.recoveries;
    mix t.emergency_retirements
  end;
  (* Byzantine-era counters, guarded the same way: crash-only and
     fault-free runs keep their historical checksums. *)
  if t.byzantine <> 0 || t.corruptions <> 0 then begin
    mix 0x62797a61;  (* "byza" *)
    mix t.byzantine;
    mix t.corruptions
  end;
  !h land max_int

let copy t =
  {
    n = t.n;
    sent = Array.copy t.sent;
    recv = Array.copy t.recv;
    total = t.total;
    dropped = t.dropped;
    duplicated = t.duplicated;
    crashes = t.crashes;
    recoveries = t.recoveries;
    emergency_retirements = t.emergency_retirements;
    byzantine = t.byzantine;
    corruptions = t.corruptions;
  }

let pp_summary ppf t =
  let p, b = bottleneck t in
  Format.fprintf ppf
    "messages=%d total_load=%d avg_load=%.2f bottleneck=p%d(load %d) overflow=%d"
    (total_messages t) (total_load t) (average_load t) p b
    (overflow_processors t);
  if t.dropped <> 0 || t.duplicated <> 0 || t.crashes <> 0 then
    Format.fprintf ppf " dropped=%d duplicated=%d crashed=%d" t.dropped
      t.duplicated t.crashes;
  if t.recoveries <> 0 || t.emergency_retirements <> 0 then
    Format.fprintf ppf " recovered=%d emergency_retired=%d" t.recoveries
      t.emergency_retirements;
  if t.byzantine <> 0 || t.corruptions <> 0 then
    Format.fprintf ppf " byzantine=%d corrupted=%d" t.byzantine t.corruptions
