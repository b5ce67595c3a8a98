(** Natural-loop detection from back edges ({!Flow.Loops}), with the
    edge kinds put back. The compilers only produce reducible flow
    (mini-C has no goto, per the MISRA discussion in the workshop's
    companion paper); irreducible flow is reported as an analysis
    failure rather than risking an unsound bound. *)

exception Irreducible of string

type loop = {
  l_header : int;
  l_body : int list;  (** blocks in the loop, including the header *)
  l_back_edges : (int * Cfg.edge_kind) list;
  l_entry_edges : (int * Cfg.edge_kind) list;
}

type t = { loops : loop list }
(** In {!Flow.Loops.compute}'s order, which the report prints. *)

val compute : Cfg.t -> Dom.t -> t
(** @raise Irreducible on retreating non-back edges. *)
