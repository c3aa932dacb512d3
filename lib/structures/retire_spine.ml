module Make (O : Core.Sequential_object.OBJECT) = struct
  module P = Core.Retire_plumbing.Make (O)

  (* The engine and the operation [execute] hands to [start]. *)
  type core = { engine : P.t; mutable operation : O.operation option }

  module Protocol = struct
    type payload = P.payload
    type t = core

    let name = "retire-spine-" ^ O.name
    let describe = "the retirement tree serving a sequential object"
    let supported_n n = Core.Params.round_up_n (max 1 n)
    let who = "Retire_spine"
    let serialising = true

    let create_with ?seed ?delay ?faults cfg =
      {
        engine = P.create_state ?seed ?delay ?faults ~who cfg;
        operation = None;
      }

    let create ?seed ?delay ?faults ~n () =
      create_with ?seed ?delay ?faults (Core.Retire_plumbing.config_of_n ~who n)

    let net c = P.net c.engine
    let value c = P.value c.engine
    let handle c = P.handle c.engine

    let start c ~reply:_ ~op:_ ~origin =
      P.launch c.engine ~origin ~operation:(Option.get c.operation)

    let verdict _ ~origin:_ = Core.Retire_plumbing.verdict ~who
    let copy c net = { c with engine = P.copy c.engine net }
  end

  include Counter.Host.Make (Protocol)

  let create_with ?seed ?delay cfg =
    host (Protocol.create_with ?seed ?delay cfg)

  let create ?seed ?delay ~n () = create ?seed ?delay ~n ()

  (* The host's [inc] returns the operation's index; the result is the
     one its origin received. *)
  let execute t ~origin operation =
    (core t).operation <- Some operation;
    ignore (inc t ~origin);
    Option.get (core t).engine.P.result

  let state t = (core t).engine.P.state
  let operations = value
  let total_retirements t = (core t).engine.P.total_retirements
  let believed_consistent t = P.believed_consistent (core t).engine
end
