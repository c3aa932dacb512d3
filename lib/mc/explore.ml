open Counter

type config = {
  max_states : int;
  max_depth : int;
  prune : Prune.mode;
  check_bound : bool;
  check_progress : bool;
}

let default_config =
  {
    max_states = 200_000;
    max_depth = 400;
    prune = Prune.Sleep;
    check_bound = true;
    check_progress = false;
  }

type property =
  | Values_wrong
  | Duplicate_value
  | Not_linearizable
  | Hotspot_violated
  | Unexpected_stall
  | Bound_violated
  | Diverged
  | Lsn_inconsistent
  | Manifest_regressed
  | Counter_regressed
  | Agreement_violated
  | No_progress

let property_name = function
  | Values_wrong -> "values-wrong"
  | Duplicate_value -> "duplicate-value"
  | Not_linearizable -> "not-linearizable"
  | Hotspot_violated -> "hotspot-violated"
  | Unexpected_stall -> "unexpected-stall"
  | Bound_violated -> "bound-violated"
  | Diverged -> "diverged"
  | Lsn_inconsistent -> "lsn-inconsistent"
  | Manifest_regressed -> "manifest-regressed"
  | Counter_regressed -> "counter-regressed"
  | Agreement_violated -> "agreement-violated"
  | No_progress -> "no-progress"

let property_of_name = function
  | "values-wrong" -> Ok Values_wrong
  | "duplicate-value" -> Ok Duplicate_value
  | "not-linearizable" -> Ok Not_linearizable
  | "hotspot-violated" -> Ok Hotspot_violated
  | "unexpected-stall" -> Ok Unexpected_stall
  | "bound-violated" -> Ok Bound_violated
  | "diverged" -> Ok Diverged
  | "lsn-inconsistent" -> Ok Lsn_inconsistent
  | "manifest-regressed" -> Ok Manifest_regressed
  | "counter-regressed" -> Ok Counter_regressed
  | "agreement-violated" -> Ok Agreement_violated
  | "no-progress" -> Ok No_progress
  | s -> Error (Printf.sprintf "unknown property %S" s)

type violation = {
  property : property;
  detail : string;
  decisions : Enabled.key list;
}

type verdict =
  | Exhausted_ok
  | Violation_found of violation
  | Budget_exhausted

type stats = {
  executions : int;
  states : int;
  max_depth_seen : int;
  max_enabled : int;
  sleep_skips : int;
  depth_capped : int;
}

type outcome = { verdict : verdict; stats : stats }

(* ------------------------------------------------------------------ *)
(* One execution under a choose function.                              *)

type exec = {
  outcomes : Counter_intf.outcome list;
  traces : Sim.Trace.t list;
  bottleneck : int;
  down_at_end : int list;  (* victims still crashed after the last op *)
}

let validate_plan (faults : Sim.Fault.t) ~n =
  let outside what victims =
    match List.find_opt (fun p -> p > n) victims with
    | Some p -> Error (Printf.sprintf "%s victim %d outside 1..%d" what p n)
    | None -> Ok ()
  in
  if
    faults.drop > 0. || faults.duplicate > 0.
    || faults.drop_links <> []
    || faults.partitions <> []
  then
    Error
      "probabilistic fault clauses (drop/dup/partitions) cannot be \
       model-checked; only crash/recover victims are supported"
  else if Sim.Fault.store_active faults then
    Error
      "store-RPC fault clauses (sdrop/sdup/sslow/sout) cannot be \
       model-checked; the adversary already owns delivery nondeterminism, \
       including store traffic"
  else
    Result.bind
      (outside "crash" (Sim.Fault.crash_processors faults))
      (fun () -> outside "byz" (Sim.Fault.byzantine_processors faults))

let require_plan faults ~n =
  match validate_plan faults ~n with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mc.Explore: " ^ e)

let recover_processors (faults : Sim.Fault.t) =
  List.sort_uniq Int.compare
    (List.map (fun (r : Sim.Fault.recover) -> r.processor) faults.recovers)

(* The counter is created with the plan's crash victims re-triggered at
   [After max_int] and its revivals at [Float.max_float]: the network
   itself never fires either (so runs stay a pure function of the
   decision sequence), but failure-aware protocols still see a non-empty
   plan and arm their timeout machinery. The explorer injects the actual
   crashes as [Crash_now] decisions and revivals as [Recover_now].
   Byzantine victims are neutered the same way ([After max_int]) while
   their [byzval]/[byzeq] rewrite rules are kept verbatim: the explorer
   decides *when* a victim turns ([Byz_now]), the plan still decides
   *how* it lies. *)
let neuter (faults : Sim.Fault.t) =
  {
    Sim.Fault.none with
    crashes =
      List.map
        (fun p -> { Sim.Fault.processor = p; trigger = Sim.Fault.After max_int })
        (Sim.Fault.crash_processors faults);
    recovers =
      List.map
        (fun p -> ({ processor = p; time = Float.max_float } : Sim.Fault.recover))
        (recover_processors faults);
    byz =
      List.map
        (fun p -> { Sim.Fault.processor = p; trigger = Sim.Fault.After max_int })
        (Sim.Fault.byzantine_processors faults);
    byz_rules = faults.byz_rules;
    byz_equiv = faults.byz_equiv;
  }

let index_of key keys =
  let rec go i =
    if i = Array.length keys then
      failwith "Mc.Explore: chosen key is not enabled"
    else if Enabled.equal keys.(i) key then i
    else go (i + 1)
  in
  go 0

let execute (module C : Counter_intf.S) ~seed ~neutered ~n ~schedule ~victims
    ~revivable ~byzable ~choose =
  let crashed = ref [] in
  let revived = ref [] in
  let byzed = ref [] in
  let policy (choices : Sim.Network.choice array) =
    let base = Array.map Enabled.of_choice choices in
    let keys =
      (* Revivals only follow crashes, so without victims no fault key
         can apply and the mapped array is the whole enabled set. *)
      if victims = [] && byzable = [] then base
      else
        let honest = List.filter (fun p -> not (List.mem p !byzed)) byzable in
        let live = List.filter (fun p -> not (List.mem p !crashed)) victims in
        (* Each victim crashes at most once and revives at most once: the
           adversary decides *when*, the plan decides *whether*. *)
        let downed =
          List.filter
            (fun p -> List.mem p !crashed && not (List.mem p !revived))
            revivable
        in
        match (honest, live, downed) with
        | [], [], [] -> base
        | _ ->
            (* Crash choices go first (then revivals) so depth-first order
               is crash-eager: the interesting branches (victim dies
               before/between deliveries, revives mid-recovery) are
               reached immediately instead of after exhausting every
               benign timer interleaving — with bounded budgets the late
               branches may never be reached at all. Byz keys lead even
               the crash keys: corruption branches are the whole point of
               a byz hunt, and a corrupted-from-the-start victim is the
               classic worst case. *)
            Array.concat
              [
                Array.of_list (List.map (fun p -> Enabled.Byz p) honest);
                Array.of_list (List.map (fun p -> Enabled.Crash p) live);
                Array.of_list (List.map (fun p -> Enabled.Recover p) downed);
                base;
              ]
    in
    match (choose keys : Enabled.key) with
    | Enabled.Byz p ->
        byzed := p :: !byzed;
        Sim.Network.Byz_now p
    | Enabled.Crash p ->
        crashed := p :: !crashed;
        Sim.Network.Crash_now p
    | Enabled.Recover p ->
        revived := p :: !revived;
        Sim.Network.Recover_now p
    | key -> Sim.Network.Deliver_next (index_of key base)
  in
  Sim.Network.with_scheduler policy (fun () ->
      let counter = C.create ~seed ~faults:neutered ~n () in
      let rng = Sim.Rng.create ~seed:(seed + 1) in
      let origins = Schedule.origins schedule rng ~n in
      let outcomes =
        List.map (fun origin -> C.inc_result counter ~origin) origins
      in
      let _, bottleneck = Sim.Metrics.bottleneck (C.metrics counter) in
      {
        outcomes;
        traces = C.traces counter;
        bottleneck;
        down_at_end = List.filter (fun p -> C.crashed counter p) victims;
      })

(* ------------------------------------------------------------------ *)
(* Property checks on one completed execution.                         *)

let string_of_values values =
  "["
  ^ String.concat ";" (Array.to_list (Array.map string_of_int values))
  ^ "]"

let synthetic_history origins values =
  (* Operations are strictly sequential, so synthetic unit-spaced
     timestamps reproduce the real-time order exactly: op [i] runs in
     [[i, i + 0.5]], disjoint from op [i + 1]. *)
  List.mapi
    (fun i origin ->
      {
        History.origin;
        value = values.(i);
        invoked_at = float_of_int i;
        completed_at = float_of_int i +. 0.5;
      })
    origins

let is_each_once = function
  | Schedule.Each_once | Schedule.Each_once_shuffled -> true
  | _ -> false

(* Completed values must rise strictly in completion order: operations
   are sequential, so a later operation observing a smaller-or-equal
   value than an earlier one is a linearizability violation (the
   signature of a re-staffed counter role losing its state). *)
let values_monotonic values =
  let ok = ref true in
  Array.iteri (fun i v -> if i > 0 && v <= values.(i - 1) then ok := false) values;
  !ok

let contains ~sub s =
  let ls = String.length sub and l = String.length s in
  let rec go i = i + ls <= l && (String.sub s i ls = sub || go (i + 1)) in
  go 0

(* A ["spec: ..."] stall is a durability-spec violation the runtime
   monitor (Core.Wal.Monitor) detected against the store's actual
   history; map its prefix to the matching checker property. *)
let spec_stall_violation outcomes =
  List.find_map
    (function
      | Counter_intf.Stalled r when contains ~sub:"spec: " r ->
          let property =
            if contains ~sub:"agreement" r then Agreement_violated
            else if contains ~sub:"manifest-monotonicity" r then
              Manifest_regressed
            else if contains ~sub:"counter-monotonicity" r then
              Counter_regressed
            else Lsn_inconsistent
          in
          Some (property, r)
      | Counter_intf.Stalled _ | Counter_intf.Completed _ -> None)
    outcomes

(* CounterProgress: once every victim the adversary crashed has been
   revived and every message delivered (quiescence at op end), an
   operation may only stall for a reason local to its origin — the
   origin was down when it ran, or it stopped retrying before the
   revival came. Anything else (a writer wedged mid-recovery, a lost
   continuation) is a liveness bug. *)
let progress_violation exec =
  if exec.down_at_end <> [] then None
  else
    List.find_map
      (function
        | Counter_intf.Stalled r
          when not (contains ~sub:"origin" r || contains ~sub:"gave up" r) ->
            Some
              ( No_progress,
                Printf.sprintf
                  "operation stalled (%s) though every crashed processor \
                   recovered and all messages were delivered"
                  r )
        | Counter_intf.Stalled _ | Counter_intf.Completed _ -> None)
      exec.outcomes

let check_properties ~config ~faulty ~schedule ~origins ~n exec =
  let values =
    Array.of_list (List.filter_map Counter_intf.outcome_value exec.outcomes)
  in
  let ops = List.length exec.outcomes in
  let stalls = ops - Array.length values in
  match spec_stall_violation exec.outcomes with
  | Some v -> Some v
  | None ->
  if faulty then
    (* Crashes may legitimately stall operations and lose values (gaps),
       so the full-permutation check does not apply; what must survive
       any interleaving of crashes is: no duplicates, linearizable
       completion order, and the Hot Spot Lemma on crash-free segments. *)
    if not (Driver.values_distinct values) then
      Some (Duplicate_value, "completed values " ^ string_of_values values)
    else if not (values_monotonic values) then
      Some
        ( Not_linearizable,
          "completed values " ^ string_of_values values
          ^ " do not rise monotonically across sequential operations" )
    else begin
      match Hotspot.check_under_faults exec.traces with
      | v :: _ ->
          Some (Hotspot_violated, Format.asprintf "%a" Hotspot.pp_violation v)
      | [] -> if config.check_progress then progress_violation exec else None
    end
  else if stalls > 0 then
    let reason =
      match
        List.find_opt
          (function Counter_intf.Stalled _ -> true | _ -> false)
          exec.outcomes
      with
      | Some (Counter_intf.Stalled r) -> r
      | _ -> "?"
    in
    Some
      ( Unexpected_stall,
        Printf.sprintf "%d/%d operations stalled without a fault plan (%s)"
          stalls ops reason )
  else if not (Driver.values_permutation values) then
    Some
      ( Values_wrong,
        Printf.sprintf "values %s are not a permutation of 0..%d"
          (string_of_values values) (ops - 1) )
  else
    match History.check (synthetic_history origins values) with
    | History.Violation (a, b) ->
        Some
          ( Not_linearizable,
            Format.asprintf "%a completed before %a was invoked" History.pp_op
              a History.pp_op b )
    | History.Linearizable -> (
        match Hotspot.check exec.traces with
        | v :: _ ->
            Some (Hotspot_violated, Format.asprintf "%a" Hotspot.pp_violation v)
        | [] ->
            if
              config.check_bound
              && is_each_once schedule
              && not
                   (Core.Lower_bound.satisfied_by ~n
                      ~bottleneck_load:exec.bottleneck)
            then
              Some
                ( Bound_violated,
                  Printf.sprintf "bottleneck load %d < k = %d on an each-once \
                                  schedule"
                    exec.bottleneck (Core.Lower_bound.k_of_n n) )
            else None)

(* ------------------------------------------------------------------ *)
(* Stateless DFS with prefix replay.                                   *)

type frame = {
  fkeys : Enabled.key array;
  mutable fchosen : int;  (* -1 = nothing chosen yet (fully-slept node) *)
  mutable fsleep : Enabled.key list;
}

exception Pruned
exception Budget_hit

let first_awake f =
  let len = Array.length f.fkeys in
  let rec go i =
    if i >= len then None
    else if Prune.asleep f.fsleep f.fkeys.(i) then go (i + 1)
    else Some i
  in
  go 0

let check ?(seed = 42) ?(faults = Sim.Fault.none) ?(config = default_config)
    (module C : Counter_intf.S) ~n ~schedule =
  let n = C.supported_n n in
  require_plan faults ~n;
  let victims = Sim.Fault.crash_processors faults in
  let byzable = Sim.Fault.byzantine_processors faults in
  let revivable = recover_processors faults in
  let neutered = neuter faults in
  let schedule_origins =
    Schedule.origins schedule (Sim.Rng.create ~seed:(seed + 1)) ~n
  in
  (* Mutable DFS state, shared across re-executions. *)
  let frames = ref (Array.make 64 None) in
  let nframes = ref 0 in
  let get d =
    match !frames.(d) with Some f -> f | None -> assert false
  in
  let push f =
    if !nframes = Array.length !frames then begin
      let bigger = Array.make (2 * !nframes) None in
      Array.blit !frames 0 bigger 0 !nframes;
      frames := bigger
    end;
    !frames.(!nframes) <- Some f;
    incr nframes
  in
  let executions = ref 0
  and states = ref 0
  and max_depth_seen = ref 0
  and max_enabled = ref 0
  and sleep_skips = ref 0
  and depth_capped = ref 0 in
  let run_decisions = ref [] in
  let run_once () =
    run_decisions := [];
    let depth = ref 0 in
    let replay_upto = !nframes in
    let choose keys =
      let d = !depth in
      incr depth;
      if Array.length keys > !max_enabled then
        max_enabled := Array.length keys;
      let key =
        if d < replay_upto then begin
          let f = get d in
          if
            Array.length keys <> Array.length f.fkeys
            || not (Array.for_all2 Enabled.equal keys f.fkeys)
          then
            failwith
              "Mc.Explore: enabled set changed on replay (nondeterministic \
               counter?)";
          f.fkeys.(f.fchosen)
        end
        else if d >= config.max_depth then begin
          (* Past the depth budget: finish the run deterministically
             (always the first enabled event) without opening new
             branches. The run still gets property-checked, but the
             exploration is no longer exhaustive. *)
          incr depth_capped;
          keys.(0)
        end
        else begin
          if !states >= config.max_states then raise Budget_hit;
          let sleep =
            if d = 0 then []
            else
              let parent = get (d - 1) in
              Prune.child_sleep config.prune
                ~taken:parent.fkeys.(parent.fchosen)
                parent.fsleep
          in
          let f = { fkeys = keys; fchosen = -1; fsleep = sleep } in
          incr states;
          if d + 1 > !max_depth_seen then max_depth_seen := d + 1;
          Array.iter
            (fun k -> if Prune.asleep sleep k then incr sleep_skips)
            keys;
          push f;
          match first_awake f with
          | Some i ->
              f.fchosen <- i;
              keys.(i)
          | None -> raise Pruned
        end
      in
      run_decisions := key :: !run_decisions;
      key
    in
    execute (module C) ~seed ~neutered ~n ~schedule ~victims ~revivable
      ~byzable ~choose
  in
  (* After a subtree is done: put the explored choice to sleep at the
     deepest frame and move to its next awake choice, popping frames
     whose choices are all asleep. Returns false when the root is
     exhausted. *)
  let rec backtrack () =
    if !nframes = 0 then false
    else begin
      let f = get (!nframes - 1) in
      if f.fchosen >= 0 then f.fsleep <- f.fkeys.(f.fchosen) :: f.fsleep;
      match first_awake f with
      | Some i ->
          f.fchosen <- i;
          true
      | None ->
          !frames.(!nframes - 1) <- None;
          decr nframes;
          backtrack ()
    end
  in
  let stats () =
    {
      executions = !executions;
      states = !states;
      max_depth_seen = !max_depth_seen;
      max_enabled = !max_enabled;
      sleep_skips = !sleep_skips;
      depth_capped = !depth_capped;
    }
  in
  let violation property detail =
    { property; detail; decisions = List.rev !run_decisions }
  in
  let rec loop () =
    match run_once () with
    | exception Pruned -> if backtrack () then loop () else finish Exhausted_ok
    | exception Budget_hit -> finish Budget_exhausted
    | exception Sim.Network.Storm { deliveries; _ } ->
        incr executions;
        finish
          (Violation_found
             (violation Diverged
                (Printf.sprintf
                   "message storm: no quiescence after %d deliveries"
                   deliveries)))
    | exec -> (
        incr executions;
        match
          check_properties ~config
            ~faulty:(victims <> [] || byzable <> [])
            ~schedule ~origins:schedule_origins ~n exec
        with
        | Some (property, detail) ->
            finish (Violation_found (violation property detail))
        | None -> if backtrack () then loop () else finish Exhausted_ok)
  and finish verdict =
    let verdict =
      match verdict with
      | Exhausted_ok when !depth_capped > 0 -> Budget_exhausted
      | v -> v
    in
    { verdict; stats = stats () }
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Deterministic single-schedule replay.                               *)

exception Replay_diverged of int * Enabled.key

let run_schedule ?(seed = 42) ?(faults = Sim.Fault.none)
    ?(config = default_config) (module C : Counter_intf.S) ~n ~schedule
    ~decisions =
  let n = C.supported_n n in
  require_plan faults ~n;
  let victims = Sim.Fault.crash_processors faults in
  let byzable = Sim.Fault.byzantine_processors faults in
  let revivable = recover_processors faults in
  let neutered = neuter faults in
  let schedule_origins =
    Schedule.origins schedule (Sim.Rng.create ~seed:(seed + 1)) ~n
  in
  let arr = Array.of_list decisions in
  let depth = ref 0 in
  let choose keys =
    let d = !depth in
    incr depth;
    if d < Array.length arr then begin
      let key = arr.(d) in
      if Array.exists (Enabled.equal key) keys then key
      else raise (Replay_diverged (d, key))
    end
    else keys.(0)
  in
  match
    execute (module C) ~seed ~neutered ~n ~schedule ~victims ~revivable
      ~byzable ~choose
  with
  | exception Replay_diverged (d, key) ->
      Error
        (Printf.sprintf
           "replay diverged: decision %d (%s) is not enabled at that point" d
           (Enabled.to_token key))
  | exception Sim.Network.Storm { deliveries; _ } ->
      Ok
        (Some
           {
             property = Diverged;
             detail =
               Printf.sprintf
                 "message storm: no quiescence after %d deliveries" deliveries;
             decisions;
           })
  | exec ->
      Ok
        (Option.map
           (fun (property, detail) -> { property; detail; decisions })
           (check_properties ~config
              ~faulty:(victims <> [] || byzable <> [])
              ~schedule ~origins:schedule_origins ~n exec))

(* ------------------------------------------------------------------ *)

let pp_stats ppf s =
  Format.fprintf ppf
    "executions=%d states=%d max_depth=%d max_enabled=%d sleep_skips=%d%s"
    s.executions s.states s.max_depth_seen s.max_enabled s.sleep_skips
    (if s.depth_capped > 0 then
       Printf.sprintf " depth_capped=%d" s.depth_capped
     else "")

let pp_violation ppf v =
  Format.fprintf ppf "@[<v>property: %s@,detail: %s@,schedule (%d decisions): %s@]"
    (property_name v.property) v.detail
    (List.length v.decisions)
    (String.concat " " (List.map Enabled.to_token v.decisions))

let pp_verdict ppf = function
  | Exhausted_ok -> Format.pp_print_string ppf "exhausted: no violation"
  | Budget_exhausted ->
      Format.pp_print_string ppf "budget exhausted: exploration incomplete"
  | Violation_found v -> Format.fprintf ppf "violation found@,%a" pp_violation v
