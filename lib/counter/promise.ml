type t = Completes | Quorum_live | Live_origins | Durable | Agreement | Splits

type row = {
  plan : Sim.Fault.t;
  n : int;
  ops : int;
  outcomes : (Counter_intf.outcome * bool) list;
  value : int;
}

let mentions ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

let agreement_stall = mentions ~sub:"agreement"

let rec first_repeat = function
  | a :: (b :: _ as rest) -> if a = b then Some a else first_repeat rest
  | _ -> None

let check promise r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let values =
    List.filter_map (fun (o, _) -> Counter_intf.outcome_value o) r.outcomes
  in
  (* Stall reasons, all of them or only those whose origin was still alive
     when the operation ended: an origin crashing mid-operation can never
     see its own answer. *)
  let reasons keep =
    List.filter_map
      (function
        | Counter_intf.Stalled s, alive when keep alive -> Some s | _ -> None)
      r.outcomes
  in
  let stalls = reasons (fun _ -> true) and live = reasons Fun.id in
  let completed = List.length values in
  let agree = List.length (List.filter agreement_stall stalls) in
  let lossless =
    Float.equal r.plan.drop 0. && Float.equal r.plan.duplicate 0.
  in
  let crashes = Sim.Fault.crash_count r.plan in
  let byz = Sim.Fault.byz_count r.plan and f = (r.n - 1) / 3 in
  if Sim.Fault.is_none r.plan && completed <> r.ops then
    fail "fault-free row completed %d/%d operations" completed r.ops;
  (match promise with
  | Completes -> ()
  | Quorum_live ->
      if lossless && crashes <= (r.n - 1) / 2 && live <> [] then
        fail "%d live-origin stalls with %d crashes (f < n/2 must complete)"
          (List.length live) crashes
  | Live_origins ->
      let hard = List.filter (fun s -> not (mentions ~sub:"origin" s)) live in
      if lossless && hard <> [] then
        fail
          "%d non-origin stalls with %d crashes (crashes below the overflow \
           pool must complete)"
          (List.length hard) crashes
  | Durable ->
      (* The durable value may exceed the acks (an applied increment whose
         ack was lost is durable but unacked), never trail them. *)
      Option.iter
        (fail "value %d acked twice")
        (first_repeat (List.sort Int.compare values));
      List.iter
        (fun v ->
          if v >= r.value then
            fail "acked value %d lost (durable count %d)" v r.value)
        values;
      if completed > r.value then
        fail "%d acks but durable count %d" completed r.value;
      Option.iter
        (fun s ->
          fail "spec violation: %s" (String.sub s 6 (String.length s - 6)))
        (List.find_opt (String.starts_with ~prefix:"spec: ") stalls)
  | Agreement ->
      (* A crash or a lost message can starve a full-reception round, so
         only a plan whose faults are all Byzantine turns is held to it. *)
      let turns_only =
        Sim.Fault.is_none
          { r.plan with byz = []; byz_rules = []; byz_equiv = [] }
      in
      if turns_only && byz <= f && completed <> r.ops then
        fail
          "b <= f = %d must complete cleanly (completed %d/%d, %d agreement \
           violations)"
          f completed r.ops agree
  | Splits ->
      if byz >= 1 && agree = 0 then
        fail
          "control must show an agreement violation (equivocating last king)");
  List.rev !failures
