(** The one forward dataflow solver over RTL, shared by constant
    propagation and GVN. Pending nodes are flags over reverse-postorder
    positions and the lowest one is stepped first; only reached
    predecessors are joined, and the entry's in-value is fixed. *)

type 'a problem = {
  entry : 'a;  (** the entry node's in-value, never joined *)
  transfer : Rtl.node -> 'a -> 'a;  (** out-value from in-value *)
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
}

type 'a solution = 'a option array
(** In-values at the fixpoint, indexed by node; [None] for nodes
    unreachable from the entry. *)

val forward : ?fuel:int -> Rtl.func -> 'a problem -> 'a solution option
(** Each step costs one unit of [fuel] (default: unbounded); [None]
    when the budget runs out before the fixpoint. Every reachable node
    is stepped at least once, and exactly once when the graph is
    acyclic. *)

val forward_naive : Rtl.func -> 'a problem -> 'a solution
(** Full RPO sweeps until nothing changes, without a worklist: the
    test oracle for {!forward}. *)
