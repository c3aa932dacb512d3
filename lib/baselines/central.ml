let holder = 1

module Make (O : Core.Sequential_object.OBJECT) = struct
  (* [op] threads an operation id through the request/reply pair so the
     open-loop path can match completions when an origin has several
     operations in flight. *)
  type payload =
    | Request of { origin : int; op : int; operation : O.operation }
    | Reply of { value : int; op : int; result : O.result }

  let label = function Request _ -> "req" | Reply _ -> "val"

  type t = {
    net : payload Sim.Network.t;
    mutable value : int;  (* operations the holder applied *)
    mutable state : O.state;
    mutable result : O.result option;  (* what the last served origin got *)
  }

  let create ?(seed = 42) ?delay ?faults ~n () =
    if n < 1 then invalid_arg "Central.create: n must be >= 1";
    {
      net = Sim.Network.create ~seed ?delay ?faults ~label ~n ();
      value = 0;
      state = O.initial;
      result = None;
    }

  let net st = st.net
  let value st = st.value
  let state st = st.state
  let result st = st.result

  (* The holder applies an operation: its value (index) and result. *)
  let apply st operation =
    let state, result = O.apply st.state operation in
    st.state <- state;
    st.value <- st.value + 1;
    (st.value - 1, result)

  let handle st ~reply ~self ~src:_ = function
    | Request { origin; op; operation } ->
        assert (self = holder);
        let value, result = apply st operation in
        Sim.Network.send st.net ~src:holder ~dst:origin
          (Reply { value; op; result })
    | Reply { value; op; result } ->
        st.result <- Some result;
        reply ~op value

  let launch st ~reply ~op ~origin ~operation =
    if origin = holder then begin
      (* The holder serves its own operations locally: no messages at all. *)
      let value, result = apply st operation in
      st.result <- Some result;
      reply ~op value
    end
    else
      Sim.Network.send st.net ~src:origin ~dst:holder
        (Request { origin; op; operation })

  let verdict ~who = function
    | Some v -> v
    | None ->
        raise
          (Counter.Counter_intf.Stall
             (who ^ ".inc: no reply (holder crashed or message lost)"))

  let copy st net = { st with net }
end

include Counter.Host.Make (struct
  include Make (Core.Sequential_object.Unit)

  let name = "central"
  let describe = "single holder processor; message-optimal, maximal bottleneck"
  let supported_n n = max 1 n
  let who = "Central"
  let serialising = false
  let start st ~reply ~op ~origin = launch st ~reply ~op ~origin ~operation:()
  let verdict _ ~origin:_ = verdict ~who
end)
