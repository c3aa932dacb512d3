let holder = 1

module Protocol = struct
  (* [op] threads an operation id through the request/reply pair so the
     open-loop path can match completions when an origin has several
     operations in flight. *)
  type payload =
    | Request of { origin : int; op : int }
    | Reply of { value : int; op : int }

  let label = function Request _ -> "req" | Reply _ -> "val"

  type t = { net : payload Sim.Network.t; mutable value : int }

  let name = "central"
  let describe = "single holder processor; message-optimal, maximal bottleneck"
  let supported_n n = max 1 n
  let who = "Central"
  let serialising = false

  let create ?(seed = 42) ?delay ?faults ~n () =
    if n < 1 then invalid_arg "Central.create: n must be >= 1";
    { net = Sim.Network.create ~seed ?delay ?faults ~label ~n (); value = 0 }

  let net st = st.net
  let value st = st.value

  let handle st ~reply ~self ~src:_ = function
    | Request { origin; op } ->
        assert (self = holder);
        Sim.Network.send st.net ~src:holder ~dst:origin
          (Reply { value = st.value; op });
        st.value <- st.value + 1
    | Reply { value; op } -> reply ~op value

  let start st ~reply ~op ~origin =
    if origin = holder then begin
      (* The holder increments locally: no messages at all. *)
      let v = st.value in
      st.value <- v + 1;
      reply ~op v
    end
    else Sim.Network.send st.net ~src:origin ~dst:holder (Request { origin; op })

  let verdict _ ~origin:_ = function
    | Some v -> v
    | None ->
        raise
          (Counter.Counter_intf.Stall
             "Central.inc: no reply (holder crashed or message lost)")

  let copy st net = { st with net }
end

include Counter.Host.Make (Protocol)
