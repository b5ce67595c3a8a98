(** Dominators over a {!Graph.t} (Cooper–Harvey–Kennedy), the
    prerequisite of natural-loop detection in LICM and in the WCET
    analyzer. *)

type t = {
  d_idom : int array;
      (** immediate dominator; the entry maps to itself, unreached
          nodes to -1 *)
  d_rpo_index : int array;  (** the graph's RPO positions *)
}

val compute : Graph.t -> t

val dominates : t -> int -> int -> bool
(** [dominates d a b]: does node [a] dominate node [b]? *)

val dominates_naive : Graph.t -> int -> int -> bool
(** Oracle for property tests: [a] dominates a reached [b] when [b] is
    unreachable once [a] is removed. [dominates_naive g a] searches the
    graph twice; apply it once per [a]. *)
