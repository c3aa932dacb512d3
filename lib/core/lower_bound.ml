let k_of_n = Params.k_of_n_floor

let satisfied_by ~n ~bottleneck_load = n < 2 || bottleneck_load >= k_of_n n

let pp_table ppf ns =
  Format.fprintf ppf "@[<v>%8s %6s %12s@," "n" "k" "k (real)";
  List.iter
    (fun n ->
      Format.fprintf ppf "%8d %6d %12.3f@," n (k_of_n n)
        (Params.k_continuous (float_of_int n)))
    ns;
  Format.fprintf ppf "@]"
