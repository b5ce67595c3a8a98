(** The one worklist of the compiler and the analyzer: pending flags
    over a graph's RPO positions, stepped lowest position first (highest
    first for backward problems) under a step budget. A forward problem
    then steps no node while one of its forward predecessors is still
    pending, and a backward one no node while one of its forward
    successors is; on an acyclic graph every pushed node is stepped
    exactly once.

    On top of it sits the pull-style forward solver of constant
    propagation and GVN. *)

type t

val create : ?backward:bool -> Graph.t -> t
(** Nothing pending yet. *)

val push : t -> int -> unit
(** Mark a reached node pending. *)

val push_all : t -> unit
(** Mark every reached node pending. *)

val run : ?fuel:int -> t -> (int -> unit) -> bool
(** [run ~fuel w step] calls [step] on the next pending node, which is
    no longer pending then and may push nodes, until none is left
    ([true]). Each step costs one unit of [fuel] (default: unbounded);
    [false] when it runs out first. *)

(** {2 The forward solver} *)

type 'a problem = {
  entry : 'a;  (** the entry node's in-value, never joined *)
  transfer : int -> 'a -> 'a;  (** out-value from in-value *)
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
}

type 'a solution = 'a option array
(** In-values at the fixpoint, by node; [None] for nodes not reached. *)

val forward : ?fuel:int -> Graph.t -> 'a problem -> 'a solution option
(** Every reached node starts pending; a step joins the out-values of
    the node's reached predecessors and, when its in-value changed,
    recomputes its out-value and pushes its successors. [None] when
    [fuel] runs out before the fixpoint. *)

val forward_naive : Graph.t -> 'a problem -> 'a solution
(** Full RPO sweeps until nothing changes: the test oracle for
    {!forward}. *)
