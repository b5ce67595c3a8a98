(* Dominators of the reconstructed CFG: the shared [Flow.Dom] over the
   CFG's graph. *)

type t = Flow.Dom.t = {
  d_idom : int array;
  d_rpo_index : int array;
}

let compute (cfg : Cfg.t) : t = Flow.Dom.compute cfg.Cfg.c_graph
let dominates : t -> int -> int -> bool = Flow.Dom.dominates

let dominates_naive (cfg : Cfg.t) : int -> int -> bool =
  Flow.Dom.dominates_naive cfg.Cfg.c_graph
