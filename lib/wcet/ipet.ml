(* Path analysis by implicit path enumeration (IPET): maximize the total
   cycle flow over the CFG subject to structural flow conservation and
   the loop bounds, solved as an integer linear program.

   Variables are edge execution counts (plus one virtual exit edge per
   exit block). A block's cost is charged on its outgoing edges (every
   execution leaves the block exactly once), edge costs add the branch
   direction penalty. Loop-bound constraints limit back-edge flow
   relative to loop-entry flow.

   The flow system itself ([build_system]) is shared with the OMT
   engine ([Smt]), which extends it with semantic infeasible-path cut
   constraints: both engines optimize exactly the same objective over
   the same edge variables, so their bounds are comparable cycle for
   cycle (the foundation of the [omt <= ipet] differential oracle). *)

exception Analysis_failed of string

type edge = {
  e_src : int;
  e_dst : int option; (* None: virtual exit edge *)
  e_kind : Cfg.edge_kind;
}

(* The structural ILP: edge variables (index into [sys_edges]), the
   cycle-cost objective, flow conservation and loop-bound constraints. *)
type system = {
  sys_edges : edge array;
  sys_objective : Lp.Q.t array;
  sys_constraints : Lp.constr list;
}

type result = {
  ipet_wcet : int;          (* cycles, including cache first-miss budget *)
  ipet_exact : bool;        (* ILP solved to integrality *)
  ipet_flow_cycles : int;   (* objective without the first-miss budget *)
}

let build_system (cfg : Cfg.t) (pl : Pipeline.t) (loops : Loops.t)
    (bounds : Boundanalysis.loop_bound list) : system =
  let reachable = Array.to_list cfg.Cfg.c_graph.Flow.Graph.order in
  (* enumerate edges *)
  let edges = ref [] in
  let nedges = ref 0 in
  let edge_index : (int * int option * Cfg.edge_kind, int) Hashtbl.t =
    Hashtbl.create 61
  in
  let add_edge (e : edge) : unit =
    Hashtbl.replace edge_index (e.e_src, e.e_dst, e.e_kind) !nedges;
    edges := e :: !edges;
    incr nedges
  in
  List.iter
    (fun b ->
       let blk = Cfg.block cfg b in
       List.iter
         (fun (s, k) -> add_edge { e_src = b; e_dst = Some s; e_kind = k })
         blk.Cfg.b_succs;
       if blk.Cfg.b_is_exit then
         add_edge { e_src = b; e_dst = None; e_kind = Cfg.Etaken })
    reachable;
  let edges = Array.of_list (List.rev !edges) in
  let n = Array.length edges in
  if n = 0 then
    (* single block, no edges at all: straight-line exit-less code is
       malformed; treat as failure *)
    raise (Analysis_failed "no edges (missing blr?)");
  (* objective: edge coefficient = block cost of source + edge cost *)
  let objective =
    Array.map
      (fun e ->
         let c =
           pl.Pipeline.pl_block_cost.(e.e_src)
           + Pipeline.edge_cost pl e.e_src e.e_kind
         in
         Lp.Q.of_int c)
      edges
  in
  (* flow conservation: for each block b:
       sum(out edges of b) - sum(in edges of b) = (b = entry ? 1 : 0) *)
  let constraints = ref [] in
  List.iter
    (fun b ->
       let coeffs = Hashtbl.create 7 in
       let bump j q =
         Hashtbl.replace coeffs j
           (Lp.Q.add q (Option.value ~default:Lp.Q.zero (Hashtbl.find_opt coeffs j)))
       in
       Array.iteri
         (fun j e ->
            if e.e_src = b then bump j Lp.Q.one;
            match e.e_dst with
            | Some d when d = b -> bump j (Lp.Q.neg Lp.Q.one)
            | _ -> ())
         edges;
       let cs_coeffs =
         Hashtbl.fold (fun j q acc -> (j, q) :: acc) coeffs []
         |> List.filter (fun (_, q) -> not (Lp.Q.is_zero q))
       in
       constraints :=
         { Lp.cs_coeffs;
           cs_rel = Lp.Eq;
           cs_rhs =
             (if b = cfg.Cfg.c_entry then Lp.Q.one else Lp.Q.zero) }
         :: !constraints)
    reachable;
  (* loop bounds: sum(back edges) <= bound * sum(entry edges). When the
     header is the function entry, the virtual entry flow contributes
     the constant 1 to the right-hand side. *)
  List.iter
    (fun l ->
       let header = l.Loops.l_header in
       match
         List.find_opt
           (fun lb -> lb.Boundanalysis.lb_header = header)
           bounds
       with
       | None ->
         raise
           (Analysis_failed
              (Printf.sprintf "loop at B%d has no bound" header))
       | Some lb ->
         let bound = lb.Boundanalysis.lb_bound in
         let coeffs = ref [] in
         List.iter
           (fun (src, kind) ->
              match Hashtbl.find_opt edge_index (src, Some header, kind) with
              | Some j -> coeffs := (j, Lp.Q.one) :: !coeffs
              | None -> ())
           l.Loops.l_back_edges;
         let entry_consts = ref 0 in
         List.iter
           (fun (src, kind) ->
              match Hashtbl.find_opt edge_index (src, Some header, kind) with
              | Some j ->
                coeffs := (j, Lp.Q.of_int (-bound)) :: !coeffs
              | None -> ())
           l.Loops.l_entry_edges;
         if header = cfg.Cfg.c_entry then entry_consts := 1;
         constraints :=
           { Lp.cs_coeffs = !coeffs;
             cs_rel = Lp.Le;
             cs_rhs = Lp.Q.of_int (bound * !entry_consts) }
           :: !constraints)
    loops.Loops.loops;
  { sys_edges = edges;
    sys_objective = objective;
    sys_constraints = !constraints }

(* Maximize the system's objective (optionally under extra constraints,
   e.g. the OMT engine's cuts) with the branch & bound ILP solver.
   Returns the flow-cycle bound; first-miss budgeting is the caller's. *)
let solve_system ?(fuel = Fuel.default) ?(extra = []) (sys : system) :
  Lp.int_solution =
  let pb =
    { Lp.pb_nvars = Array.length sys.sys_edges;
      pb_objective = sys.sys_objective;
      pb_constraints = extra @ sys.sys_constraints }
  in
  match
    Lp.solve_integer ~fuel:fuel.Fuel.fl_simplex
      ~max_nodes:fuel.Fuel.fl_bb_nodes pb
  with
  | exception Lp.Infeasible -> raise (Analysis_failed "IPET infeasible")
  | exception Lp.Unbounded ->
    raise (Analysis_failed "IPET unbounded (missing loop bound?)")
  | exception Lp.Overflow -> raise (Analysis_failed "LP arithmetic overflow")
  | sol ->
    if sol.Lp.is_objective_bound = min_int then
      raise (Analysis_failed "IPET infeasible");
    sol

let compute ?(fuel = Fuel.default) (cfg : Cfg.t) (pl : Pipeline.t)
    (cache : Cacheanalysis.t) (loops : Loops.t)
    (bounds : Boundanalysis.loop_bound list) : result =
  let sys = build_system cfg pl loops bounds in
  let sol = solve_system ~fuel sys in
  { ipet_wcet = sol.Lp.is_objective_bound + cache.Cacheanalysis.ca_first_miss;
    ipet_exact = sol.Lp.is_exact;
    ipet_flow_cycles = sol.Lp.is_objective_bound }
