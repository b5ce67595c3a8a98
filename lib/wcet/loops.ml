(* Natural loops of the reconstructed CFG: the shared [Flow.Loops] over
   the CFG's graph, with the branch directions that the pipeline and
   IPET charge put back on the back and entry edges. The compilers only
   produce reducible control flow — mini-C has no goto, in line with
   MISRA rule 14.4 discussed in the workshop's companion paper — so
   natural loops cover all cycles; the analyzer nevertheless verifies
   reducibility and reports irreducible flow as an analysis failure
   rather than returning an unsound bound. *)

exception Irreducible of string

type loop = {
  l_header : int;
  l_body : int list;                    (* blocks in the loop, incl. header *)
  l_back_edges : (int * Cfg.edge_kind) list; (* sources of back edges *)
  l_entry_edges : (int * Cfg.edge_kind) list; (* edges into header from outside *)
}

type t = { loops : loop list }

(* The edges into [header] from the blocks [srcs], block by block in
   the given order, each block's in successor order. *)
let edges_into (cfg : Cfg.t) (header : int) (srcs : int list) :
  (int * Cfg.edge_kind) list =
  List.concat_map
    (fun b ->
       List.filter_map
         (fun (s, k) -> if s = header then Some (b, k) else None)
         (Cfg.successors cfg b))
    srcs

let compute (cfg : Cfg.t) (dom : Dom.t) : t =
  match Flow.Loops.compute cfg.Cfg.c_graph dom with
  | exception Flow.Loops.Irreducible (src, dst) ->
    raise
      (Irreducible
         (Printf.sprintf "%s: edge B%d -> B%d" cfg.Cfg.c_fname src dst))
  | loops ->
    let loop (l : Flow.Loops.loop) : loop =
      { l_header = l.l_header;
        l_body = l.l_body;
        (* latest source first *)
        l_back_edges = List.rev (edges_into cfg l.l_header l.l_back_srcs);
        l_entry_edges = edges_into cfg l.l_header l.l_entry_preds }
    in
    { loops = List.map loop loops }
