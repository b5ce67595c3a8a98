(** Natural loops from back edges (an edge [n -> h] where [h] dominates
    [n]). The compilers only produce reducible flow (mini-C has no
    goto); irreducible flow raises, and each client refuses rather
    than transform or bound it unsoundly. *)

exception Irreducible of int * int
(** A retreating edge [(src, dst)] that is not a back edge. *)

type loop = {
  l_header : int;
  l_body : int list;  (** ascending, including the header *)
  l_back_srcs : int list;  (** ascending sources of back edges *)
  l_entry_preds : int list;
      (** ascending predecessors of the header outside the loop *)
}

val compute : Graph.t -> Dom.t -> loop list
(** One loop per header, in the fold order of a [Hashtbl.create 17]
    filled header by header as back edges turn up in ascending source
    order: the WCET report prints loops in this order.
    @raise Irreducible on the first offending edge in that order. *)
