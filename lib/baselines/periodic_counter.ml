(* The periodic counting network as a registry counter: the
   Counting_network core over Periodic.build. *)

module C = Counting_network.Protocol

include Counter.Host.Make (struct
  include C

  let name = "periodic-net"

  let describe =
    "AHS periodic counting network (reflector blocks); lg^2 w depth, \
     Theta(n/w) bottleneck"

  let create ?seed ?delay ?faults ~n () =
    C.create_custom ?seed ?delay ?faults ~n
      ~network:(Periodic.build ~width:(C.default_width n))
      ()
end)
