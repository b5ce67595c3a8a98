(** Dominators of the reconstructed CFG ({!Flow.Dom}), prerequisite of
    natural-loop detection. *)

type t = Flow.Dom.t = {
  d_idom : int array;      (** immediate dominators; entry maps to itself *)
  d_rpo_index : int array;
}

val compute : Cfg.t -> t
val dominates : t -> int -> int -> bool

val dominates_naive : Cfg.t -> int -> int -> bool
(** O(n^2) recomputation via reachability removal; property tests
    compare it against {!dominates}. *)
