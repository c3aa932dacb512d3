module R = Core.Retire_counter.Protocol

include Counter.Host.Make (struct
  include R

  let name = "static-tree"

  let describe =
    "the paper's tree without retirement: Theta(n) load at the root worker"

  let create ?seed ?delay ?faults ~n () =
    R.create_with ?seed ?delay ?faults
      {
        (Core.Retire_plumbing.config_of_n ~who:"Static_tree" n) with
        retire_threshold = max_int;
      }
end)
