(** Pure index arithmetic for the paper's communication tree (Fig. 4).

    The paper's tree has arity [k] and inner levels [0 .. k]: every inner
    node has exactly [k] children, the root is on level 0, and the leaves —
    the [n = k^(k+1)] processors themselves — are the children of the
    level-[k] nodes ("all leaves are on level k+1"). For the arity/depth
    ablation (experiment E10) the module is generalised to any [arity >= 1]
    and [depth >= 0]: inner levels are [0 .. depth] and the leaf count is
    [n = arity^(depth+1)]. {!create_paper} instantiates the paper's
    balanced choice [arity = depth = k].

    Inner nodes are addressed two ways:
    - by [(level, index)] with [index] in [0 .. arity^level - 1], left to
      right;
    - by a flat id in [0 .. inner_count - 1], level by level (root = 0),
      convenient as an array index and as the node tag inside protocol
      messages.

    Leaves are identified with processor ids [1 .. n] (the paper numbers
    processors from 1). *)

type t

val create : arity:int -> depth:int -> t
(** Requires [arity >= 1] and [depth >= 0]. *)

val create_paper : k:int -> t
(** The paper's tree: [create ~arity:k ~depth:k], with [k^(k+1)] leaves. *)

val arity : t -> int

val depth : t -> int
(** Deepest inner level; its nodes' children are the leaves. *)

val n : t -> int
(** Number of leaves = processors = [arity^(depth+1)]. *)

val inner_count : t -> int
(** Number of inner nodes, [sum_{i=0..depth} arity^i]. *)

val nodes_at_level : t -> int -> int
(** [arity^i]. Requires [0 <= i <= depth]. *)

val flat_id : t -> level:int -> index:int -> int

val level_of : t -> int -> int
(** Level of a flat id. *)

val index_of : t -> int -> int
(** Within-level index of a flat id. *)

val root : int
(** Flat id of the root ([= 0]). *)

val parent : t -> int -> int option
(** Parent flat id; [None] for the root. *)

val children : t -> int -> int list
(** Inner-node children (flat ids); [\[\]] for bottom-level nodes, whose
    children are leaves — see {!leaf_children}. *)

val leaf_children : t -> int -> int list
(** For a bottom-level node: its [arity] leaf processors (1-based ids).
    Raises [Invalid_argument] for non-bottom nodes. *)

val leaf_parent : t -> leaf:int -> int
(** Flat id of the bottom-level node whose child is leaf processor [leaf]
    (1-based). *)

val path_to_root : t -> leaf:int -> int list
(** Flat ids from the leaf's parent up to and including the root — the
    route an [inc] request travels. Length [depth + 1]. *)
