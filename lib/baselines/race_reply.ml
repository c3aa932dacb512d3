module Protocol = struct
  type payload =
    | Request of { origin : int }
    | Reply of { value : int }
    | Echo of { origin : int; value : int }

  let label = function
    | Request _ -> "req"
    | Reply _ -> "val"
    | Echo _ -> "echo"

  type t = { net : payload Sim.Network.t; mutable value : int }

  let name = "race-reply"

  let describe =
    "broken: holder races a stale relayed reply against the direct one"

  let who = "Race_reply"

  let serialising = true

  let holder = 1

  let relay = 2

  let supported_n n = max 3 n

  (* The bug: besides the correct direct reply, the holder "helpfully"
     pushes the value to the origin a second time through a relay — but it
     builds that message after the increment, so the relayed copy carries
     [v + 1]. The origin keeps whichever reply arrives first. Under the
     default delivery order the direct reply (one hop) always beats the
     relayed one (two hops) and the counter looks correct on every
     schedule; only an adversarial scheduler that delays the direct reply
     behind both relay hops exposes the stale value. When the origin IS the
     relay both messages share the (holder, relay) link, whose FIFO order
     protects the direct reply — that origin is immune. *)
  let handle st ~reply ~self ~src:_ = function
    | Request { origin } ->
        assert (self = holder);
        let v = st.value in
        st.value <- v + 1;
        Sim.Network.send st.net ~src:holder ~dst:origin (Reply { value = v });
        if origin <> relay then
          Sim.Network.send st.net ~src:holder ~dst:relay
            (Echo { origin; value = st.value })
    | Echo { origin; value } ->
        assert (self = relay);
        Sim.Network.send st.net ~src:relay ~dst:origin (Reply { value })
    | Reply { value } -> reply ~op:(-1) value

  let create ?(seed = 42) ?delay ?faults ~n () =
    if n < 3 then invalid_arg "Race_reply.create: n must be >= 3";
    { net = Sim.Network.create ~seed ?delay ?faults ~label ~n (); value = 0 }

  let net t = t.net

  let value t = t.value

  let start t ~reply ~op ~origin =
    if origin = holder then begin
      let v = t.value in
      t.value <- v + 1;
      reply ~op v
    end
    else Sim.Network.send t.net ~src:origin ~dst:holder (Request { origin })

  (* The origin keeps whichever reply arrives first. *)
  let verdict _ ~origin:_ = function
    | Some v -> v
    | None ->
        raise
          (Counter.Counter_intf.Stall
             "Race_reply.inc: no reply (holder crashed or message lost)")

  let copy t net = { t with net }
end

include Counter.Host.Make (Protocol)
