(* Liveness analysis over RTL: backward dataflow fixpoint computing, for
   every node, the set of pseudo-registers live *after* the instruction
   at that node. Each node's live-after set is a bit row indexed by
   register number ([Bitrow]), so the worklist's union-and-compare is a
   word-wise OR. The one analysis serves dead-code elimination, LICM,
   the interference graph of the register allocator and the
   allocator's independent [Regalloc.verify]; [analyze_naive] is a
   separate set-based global fixpoint kept as the test oracle. *)

type t = Bitrow.t array (* indexed by node *)

(* live_before(n) = (live_after(n) \ def(n)) ∪ use(n), into [dst]. *)
let live_before_into (i : Rtl.instruction) (after : Bitrow.t) (dst : Bitrow.t) :
  unit =
  Bitrow.assign ~dst after;
  Option.iter (Bitrow.remove dst) (Rtl.instr_def i);
  List.iter (Bitrow.add dst) (Rtl.instr_uses i)

(* Live-after rows of all reachable nodes: the backward problem on the
   shared worklist, highest RPO position first, so on an acyclic
   function every node is stepped once, after all its successors. *)
let solve ?fuel (f : Rtl.func) : t option =
  let g = Rtl.graph f and nregs = f.Rtl.f_next_reg in
  let rows = Array.init f.Rtl.f_next_node (fun _ -> Bitrow.create nregs) in
  let before = Bitrow.create nregs in
  let w = Flow.Worklist.create ~backward:true g in
  Flow.Worklist.push_all w;
  let step n =
    live_before_into (Rtl.get_instr f n) rows.(n) before;
    (* propagate into predecessors' live-after *)
    List.iter
      (fun p ->
         if Bitrow.union_into ~dst:rows.(p) before then Flow.Worklist.push w p)
      g.Flow.Graph.preds.(n)
  in
  if Flow.Worklist.run ?fuel w step then Some rows else None

(* No fuel: the lattice is finite. *)
let analyze (f : Rtl.func) : t = Option.get (solve f)

(* Nodes created after the analysis (LICM's preheaders) have no row. *)
let no_row = Bitrow.create 0

let live_after (lv : t) (n : Rtl.node) : Bitrow.t =
  if n < Array.length lv then lv.(n) else no_row

let mem_after (lv : t) (n : Rtl.node) (r : Rtl.reg) : bool =
  Bitrow.mem (live_after lv n) r

(* Is [r] live before node [n], whose instruction is [i]? The caller
   passes the instruction it sees now, which may have been rewritten
   since the analysis ran. *)
let mem_before (lv : t) (i : Rtl.instruction) (n : Rtl.node) (r : Rtl.reg) :
  bool =
  List.mem r (Rtl.instr_uses i)
  || (Rtl.instr_def i <> Some r && mem_after lv n r)

(* ---- test oracle ---------------------------------------------------- *)

module RegSet = Set.Make (Int)

type naive = (Rtl.node, RegSet.t) Hashtbl.t

let live_before_set (i : Rtl.instruction) (after : RegSet.t) : RegSet.t =
  let minus_def =
    match Rtl.instr_def i with
    | Some d -> RegSet.remove d after
    | None -> after
  in
  List.fold_left (fun s r -> RegSet.add r s) minus_def (Rtl.instr_uses i)

(* Naive recomputation used by property tests: iterate the equations
   globally until fixpoint, no worklist. *)
let analyze_naive (f : Rtl.func) : naive =
  let nodes = Rtl.reverse_postorder f in
  let live_after : naive = Hashtbl.create 251 in
  let get n = Option.value ~default:RegSet.empty (Hashtbl.find_opt live_after n) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
         let i = Rtl.get_instr f n in
         let after =
           List.fold_left
             (fun acc s ->
                RegSet.union acc (live_before_set (Rtl.get_instr f s) (get s)))
             RegSet.empty (Rtl.successors i)
         in
         if not (RegSet.equal after (get n)) then begin
           Hashtbl.replace live_after n after;
           changed := true
         end)
      nodes
  done;
  live_after

let naive_after (lv : naive) (n : Rtl.node) : RegSet.t =
  Option.value ~default:RegSet.empty (Hashtbl.find_opt lv n)
