(** A control-flow graph over the nodes [0 .. size - 1], built once from
    a successor function: the nodes reached from the entry in reverse
    postorder (RPO), with their predecessors. Its depth-first search is
    the only one of the compiler and the analyzer, and it takes a
    node's successors in list order, first successor first. *)

type t = {
  entry : int;
  order : int array;  (** reached nodes in RPO; the entry first *)
  pos : int array;  (** node -> RPO position; -1 when not reached *)
  succs : int list array;
      (** node -> successors, as given; [] when not reached *)
  preds : int list array;
      (** node -> reached predecessors by increasing RPO position, one
          per edge *)
}

val make : size:int -> entry:int -> (int -> int list) -> t
(** [make ~size ~entry succ] calls [succ] once per reached node. *)
