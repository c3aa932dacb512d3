type shape = Constant | Log | K_of_n | Log_squared | Sqrt | Linear

let all_shapes = [ Constant; Log; K_of_n; Log_squared; Sqrt; Linear ]

let shape_name = function
  | Constant -> "1"
  | Log -> "log n"
  | K_of_n -> "k(n)"
  | Log_squared -> "log^2 n"
  | Sqrt -> "sqrt n"
  | Linear -> "n"

(* Real solution of x^(x+1) = n; duplicated from Core.Params to keep this
   library dependency-free (it is three lines of bisection). *)
let k_continuous n =
  if n <= 1. then 1.
  else begin
    let target = log n in
    let f x = (x +. 1.) *. log x in
    let rec grow hi = if f hi < target then grow (2. *. hi) else hi in
    let rec bisect lo hi iter =
      if iter = 0 then (lo +. hi) /. 2.
      else
        let mid = (lo +. hi) /. 2. in
        if f mid < target then bisect mid hi (iter - 1)
        else bisect lo mid (iter - 1)
    in
    bisect 1. (grow 2.) 80
  end

let eval shape n =
  match shape with
  | Constant -> 1.
  | Log -> log n /. log 2.
  | K_of_n -> k_continuous n
  | Log_squared ->
      let l = log n /. log 2. in
      l *. l
  | Sqrt -> sqrt n
  | Linear -> n

type fit = { shape : shape; scale : float; residual : float }

let fit_shape shape points =
  if List.length points < 1 then invalid_arg "Growth.fit_shape: no points";
  (* c = sum(y f) / sum(f^2). *)
  let num, den =
    List.fold_left
      (fun (num, den) (n, y) ->
        let f = eval shape n in
        (num +. (y *. f), den +. (f *. f)))
      (0., 0.) points
  in
  let scale = if Float.equal den 0. then 0. else num /. den in
  let sq_err, sq_y =
    List.fold_left
      (fun (se, sy) (n, y) ->
        let e = y -. (scale *. eval shape n) in
        (se +. (e *. e), sy +. (y *. y)))
      (0., 0.) points
  in
  let residual = if Float.equal sq_y 0. then 0. else sqrt (sq_err /. sq_y) in
  { shape; scale; residual }

let best_fit points =
  if List.length points < 2 then invalid_arg "Growth.best_fit: need >= 2 points";
  let fits =
    List.sort
      (fun a b -> Float.compare a.residual b.residual)
      (List.map (fun s -> fit_shape s points) all_shapes)
  in
  match fits with [] -> assert false | best :: _ -> (best, fits)
