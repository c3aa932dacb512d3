module Protocol = struct
  type payload = unit
  type t = { net : unit Sim.Network.t; locals : int array; mutable ops : int }

  let name = "amnesiac"
  let describe = "broken: purely local counting, no communication"
  let supported_n n = max 1 n
  let who = "Amnesiac"
  let serialising = true

  let create ?(seed = 42) ?delay ?faults ~n () =
    {
      net = Sim.Network.create ~seed ?delay ?faults ~n ();
      locals = Array.make (n + 1) 0;
      ops = 0;
    }

  let net t = t.net
  let value t = t.ops
  let handle _ ~reply:_ ~self:_ ~src:_ () = ()

  let start t ~reply ~op ~origin =
    let v = t.locals.(origin) in
    t.locals.(origin) <- v + 1;
    t.ops <- t.ops + 1;
    reply ~op v

  let verdict _ ~origin:_ = Option.get
  let copy t net = { t with net; locals = Array.copy t.locals }
end

include Counter.Host.Make (Protocol)
