module R = Core.Retire_counter.Protocol

include Counter.Host.Make (struct
  include R

  let name = "static-tree"

  let describe =
    "the paper's tree without retirement: Theta(n) load at the root worker"

  let create ?seed ?delay ?faults ~n () =
    match Core.Params.k_of_n_exact n with
    | Some k ->
        R.create_with ?seed ?delay ?faults
          { (Core.Retire_counter.paper_config ~k) with retire_threshold = max_int }
    | None ->
        invalid_arg
          (Printf.sprintf
             "Static_tree.create: n = %d is not of the form k^(k+1); use \
              supported_n"
             n)
end)
