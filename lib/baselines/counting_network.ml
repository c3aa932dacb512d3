module Protocol = struct
  (* [op] threads an operation id through a token's full traversal so the
     open-loop path can match completions when an origin has several
     operations in flight. *)
  type payload =
    | Token of { origin : int; op : int; at : Bitonic.link }
    | Value of { value : int; op : int }

  let label = function Token _ -> "token" | Value _ -> "val"

  type t = {
    net : payload Sim.Network.t;
    n : int;
    bitonic : Bitonic.network;
    toggles : bool array;
    counts : int array;  (* per output wire *)
  }

  let name = "counting-net"

  let describe =
    "bitonic counting network (AHS); O(log^2 w) messages/op, Theta(n/w) \
     bottleneck"

  let supported_n n = max 1 n

  let who = "Counting_network"

  let serialising = false

  let balancer_count t = Array.length t.bitonic.Bitonic.balancers

  (* Hosting: spread balancers and output counters round-robin over the
     processors. *)
  let balancer_host t id = (id mod t.n) + 1

  let output_host t wire =
    ((balancer_count t + wire) mod t.n) + 1

  let host_of_link t = function
    | Bitonic.To_balancer id -> balancer_host t id
    | Bitonic.To_output wire -> output_host t wire

  let handle st ~reply ~self:_ ~src:_ = function
    | Value { value; op } -> reply ~op value
    | Token { origin; op; at } -> (
        match at with
        | Bitonic.To_output wire ->
            let w = st.bitonic.Bitonic.width in
            let value = wire + (w * st.counts.(wire)) in
            st.counts.(wire) <- st.counts.(wire) + 1;
            Sim.Network.send st.net ~src:(output_host st wire) ~dst:origin
              (Value { value; op })
        | Bitonic.To_balancer id ->
            let bal = st.bitonic.Bitonic.balancers.(id) in
            let top = st.toggles.(id) in
            st.toggles.(id) <- not top;
            let next = if top then bal.Bitonic.out_top else bal.Bitonic.out_bot in
            Sim.Network.send st.net ~src:(balancer_host st id)
              ~dst:(host_of_link st next)
              (Token { origin; op; at = next }))

  let create_custom ?(seed = 42) ?delay ?faults ~n ~network:bitonic () =
    if n < 1 then invalid_arg "Counting_network: n must be >= 1";
    {
      net = Sim.Network.create ~seed ?delay ?faults ~label ~n ();
      n;
      bitonic;
      toggles = Array.make (Array.length bitonic.Bitonic.balancers) true;
      counts = Array.make bitonic.Bitonic.width 0;
    }

  let create_width ?seed ?delay ?faults ~n ~width () =
    create_custom ?seed ?delay ?faults ~n ~network:(Bitonic.build ~width) ()

  let default_width n =
    if n <= 1 then 1
    else begin
      let target = int_of_float (sqrt (float_of_int n)) in
      let rec grow w = if 2 * w <= target then grow (2 * w) else w in
      max 2 (grow 1)
    end

  let create ?seed ?delay ?faults ~n () =
    create_width ?seed ?delay ?faults ~n ~width:(default_width n) ()

  let net t = t.net

  (* Tokens that reached an output counter: the values handed out. *)
  let value t = Array.fold_left ( + ) 0 t.counts

  let start t ~reply:_ ~op ~origin =
    let wire = (origin - 1) mod t.bitonic.Bitonic.width in
    let entry = t.bitonic.Bitonic.entry.(wire) in
    Sim.Network.send t.net ~src:origin ~dst:(host_of_link t entry)
      (Token { origin; op; at = entry })

  (* First completion (duplication faults can deliver the value twice;
     without faults there is exactly one). *)
  let verdict _ ~origin:_ = function
    | Some v -> v
    | None ->
        raise
          (Counter.Counter_intf.Stall
             "Counting_network.inc: no value returned (balancer host crashed \
              or token lost)")

  let copy t net =
    { t with net; toggles = Array.copy t.toggles; counts = Array.copy t.counts }
end

include Counter.Host.Make (Protocol)

let create_custom ?seed ?delay ?faults ~n ~network () =
  host (Protocol.create_custom ?seed ?delay ?faults ~n ~network ())

let create_width ?seed ?delay ?faults ~n ~width () =
  host (Protocol.create_width ?seed ?delay ?faults ~n ~width ())

let width t = (core t).Protocol.bitonic.Bitonic.width

let network_depth t = Bitonic.depth (core t).Protocol.bitonic

let balancer_count t = Protocol.balancer_count (core t)

let output_counts t = Array.copy (core t).Protocol.counts

let step_property_held t = Bitonic.step_property (core t).Protocol.counts
