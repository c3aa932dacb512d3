type outcome = { found : int list option; probes : int; quorums_examined : int }

let search (module Q : Quorum_intf.S) ~n ~failed =
  let n = Q.supported_n n in
  let q = Q.create ~n in
  let max_quorums = Q.distinct_quorums q in
  (* known.(e): None = unprobed, Some alive = probed answer. *)
  let known = Array.make (n + 1) None in
  let probes = ref 0 in
  let probe e =
    match known.(e) with
    | Some alive -> alive
    | None ->
        incr probes;
        let alive = not (failed e) in
        known.(e) <- Some alive;
        alive
  in
  let rec walk slot =
    if slot >= max_quorums then { found = None; probes = !probes; quorums_examined = slot }
    else
      let members = Q.quorum q ~slot in
      let known_dead =
        List.exists (fun e -> known.(e) = Some false) members
      in
      if known_dead then walk (slot + 1)
      else if List.for_all probe members then
        { found = Some members; probes = !probes; quorums_examined = slot + 1 }
      else walk (slot + 1)
  in
  walk 0

let random_failures rng ~n ~fraction =
  Array.init (n + 1) (fun e -> e > 0 && Sim.Rng.float rng 1.0 < fraction)

let expected_probes (module Q : Quorum_intf.S) ~n ~fraction ~trials ~seed =
  let rng = Sim.Rng.create ~seed in
  let total_probes = ref 0 and successes = ref 0 in
  for _ = 1 to trials do
    let failures = random_failures rng ~n:(Q.supported_n n) ~fraction in
    let outcome =
      search (module Q) ~n ~failed:(fun e -> failures.(e))
    in
    total_probes := !total_probes + outcome.probes;
    if outcome.found <> None then incr successes
  done;
  ( float_of_int !total_probes /. float_of_int (max 1 trials),
    float_of_int !successes /. float_of_int (max 1 trials) )
