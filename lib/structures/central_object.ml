module Make (O : Core.Sequential_object.OBJECT) = struct
  module E = Baselines.Central.Make (O)

  (* The engine and the operation [execute] hands to [start]. *)
  type core = { engine : E.t; mutable operation : O.operation option }

  include Counter.Host.Make (struct
    type payload = E.payload
    type t = core

    let name = "central-" ^ O.name
    let describe = "single holder processor serving a sequential object"
    let supported_n n = max 1 n
    let who = "Central_object"
    let serialising = true

    let create ?seed ?delay ?faults ~n () =
      { engine = E.create ?seed ?delay ?faults ~n (); operation = None }

    let net c = E.net c.engine
    let value c = E.value c.engine
    let handle c = E.handle c.engine

    let start c ~reply ~op ~origin =
      E.launch c.engine ~reply ~op ~origin ~operation:(Option.get c.operation)

    let verdict _ ~origin:_ = E.verdict ~who
    let copy c net = { c with engine = E.copy c.engine net }
  end)

  let create ?seed ?delay ~n () = create ?seed ?delay ~n ()

  (* The host's [inc] returns the operation's index; the result is the
     one its origin received. *)
  let execute t ~origin operation =
    (core t).operation <- Some operation;
    ignore (inc t ~origin);
    Option.get (E.result (core t).engine)

  let state t = E.state (core t).engine
  let operations = value
end
