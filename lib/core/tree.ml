type t = {
  arity : int;
  depth : int;
  n : int;
  level_offsets : int array;  (* level_offsets.(i) = flat id of (i, 0) *)
  inner_count : int;
}

let create ~arity ~depth =
  if arity < 1 then invalid_arg "Tree.create: arity must be >= 1";
  if depth < 0 then invalid_arg "Tree.create: depth must be >= 0";
  let n = Params.pow arity (depth + 1) in
  let level_offsets = Array.make (depth + 1) 0 in
  let off = ref 0 in
  for i = 0 to depth do
    level_offsets.(i) <- !off;
    off := !off + Params.pow arity i
  done;
  { arity; depth; n; level_offsets; inner_count = !off }

let create_paper ~k =
  if k < 1 then invalid_arg "Tree.create_paper: k must be >= 1";
  create ~arity:k ~depth:k

let arity t = t.arity

let depth t = t.depth

let n t = t.n

let inner_count t = t.inner_count

let nodes_at_level t i =
  if i < 0 || i > t.depth then invalid_arg "Tree.nodes_at_level: bad level";
  Params.pow t.arity i

let flat_id t ~level ~index =
  if level < 0 || level > t.depth then invalid_arg "Tree.flat_id: bad level";
  if index < 0 || index >= nodes_at_level t level then
    invalid_arg "Tree.flat_id: bad index";
  t.level_offsets.(level) + index

let level_of t id =
  if id < 0 || id >= t.inner_count then invalid_arg "Tree.level_of: bad id";
  (* Levels are few (depth+1 of them); linear scan is clear and fast
     enough. *)
  let rec find i =
    if i = t.depth || t.level_offsets.(i + 1) > id then i else find (i + 1)
  in
  find 0

let index_of t id = id - t.level_offsets.(level_of t id)

let root = 0

let parent t id =
  let level = level_of t id in
  if level = 0 then None
  else Some (flat_id t ~level:(level - 1) ~index:(index_of t id / t.arity))

let children t id =
  let level = level_of t id in
  if level = t.depth then []
  else
    let base = index_of t id * t.arity in
    List.init t.arity (fun c -> flat_id t ~level:(level + 1) ~index:(base + c))

let leaf_children t id =
  let level = level_of t id in
  if level <> t.depth then
    invalid_arg "Tree.leaf_children: node is not on the bottom level";
  let base = index_of t id * t.arity in
  List.init t.arity (fun c -> base + c + 1)

let leaf_parent t ~leaf =
  if leaf < 1 || leaf > t.n then invalid_arg "Tree.leaf_parent: bad leaf";
  flat_id t ~level:t.depth ~index:((leaf - 1) / t.arity)

let path_to_root t ~leaf =
  let rec climb acc id =
    match parent t id with
    | None -> List.rev (id :: acc)
    | Some p -> climb (id :: acc) p
  in
  climb [] (leaf_parent t ~leaf)
