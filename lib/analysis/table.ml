type t = { columns : string list; mutable rows_rev : string list list }

let create ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { columns; rows_rev = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows_rev <- row :: t.rows_rev

let cell_float ?(decimals = 2) f = Printf.sprintf "%.*f" decimals f

let cell_bool b = if b then "yes" else "no"

let widths t =
  let rows = List.rev t.rows_rev in
  List.mapi
    (fun i h ->
      List.fold_left
        (fun acc row -> max acc (String.length (List.nth row i)))
        (String.length h) rows)
    t.columns

let pp ppf t =
  let widths = widths t in
  let print_row cells =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        if i = 0 then Format.fprintf ppf "%-*s" w cell
        else Format.fprintf ppf "  %*s" w cell)
      cells;
    Format.pp_print_newline ppf ()
  in
  print_row t.columns;
  let rule = List.map (fun w -> String.make w '-') widths in
  print_row rule;
  List.iter print_row (List.rev t.rows_rev)

let to_csv t =
  let escape cell =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
    else cell
  in
  let line cells = String.concat "," (List.map escape cells) in
  String.concat "\n" (line t.columns :: List.map line (List.rev t.rows_rev))
  ^ "\n"
