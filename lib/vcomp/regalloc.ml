(* Register allocation by graph coloring (Chaitin–Briggs with
   conservative move coalescing), the optimization the paper singles out
   as the main source of CompCert's gains over the pattern-based
   compile: wires between SCADE symbols stay in registers instead of
   making the stack-frame round trip of Listing 1.

   The allocator colors integer and float pseudo-registers separately
   against the EABI allocatable banks of [Target.Asm]. Pseudo-registers
   that cannot be colored are spilled to dedicated stack slots; the
   assembly generator reloads them through reserved scratch registers.

   Every structure is dense over register numbers [0 .. f_next_reg - 1]:
   interference is one [Bitrow] per register, degree, use count,
   union-find parent and color are int arrays. Each choice follows a
   fixed order — registers in ascending number, the Briggs rule on the
   degrees before a merge, the first minimum of [spill_cost] — so the
   coloring is a function of the RTL alone.

   [verify] is the structural half of the translation validator: it
   rechecks, independently of how the coloring was obtained, with its
   own liveness run and its own interference rule, that no two
   simultaneously-live pseudo-registers share a location. *)

type loc =
  | Lireg of Target.Asm.ireg
  | Lfreg of Target.Asm.freg
  | Lslot of int (* index of an 8-byte spill slot in the frame *)

type allocation = loc option array

let loc_equal (a : loc) (b : loc) : bool =
  match a, b with
  | Lireg x, Lireg y | Lfreg x, Lfreg y | Lslot x, Lslot y -> x = y
  | (Lireg _ | Lfreg _ | Lslot _), _ -> false

(* Register classes as a dense table; every register of the function
   was created by [Rtl.fresh_reg], so only the unused number 0 has no
   class of its own. *)
let classes (f : Rtl.func) : Rtl.mclass array =
  Array.init f.Rtl.f_next_reg (fun r ->
      Option.value ~default:Rtl.Cint (Hashtbl.find_opt f.Rtl.f_classes r))

(* The allocatable bank of a class; its size is the K of the coloring. *)
let palette (c : Rtl.mclass) : int list =
  match c with
  | Rtl.Cint -> Target.Asm.allocatable_iregs
  | Rtl.Cfloat -> Target.Asm.allocatable_fregs

let reg_loc (c : Rtl.mclass) (color : int) : loc =
  match c with
  | Rtl.Cint -> Lireg color
  | Rtl.Cfloat -> Lfreg color

(* ---- interference graph ------------------------------------------ *)

type graph = {
  g_node : bool array;       (* the register occurs in the function *)
  g_adj : Bitrow.t array;    (* symmetric interference rows *)
  g_uses : int array;        (* occurrence count, for spill cost *)
  g_moves : (Rtl.reg * Rtl.reg) list;  (* move-related pairs, same class *)
}

let registers (g : graph) : Rtl.reg list =
  List.filter (fun r -> g.g_node.(r)) (List.init (Array.length g.g_node) Fun.id)

let neighbours (g : graph) (r : Rtl.reg) : Rtl.reg list =
  Bitrow.elements g.g_adj.(r)

let build_graph (f : Rtl.func) : graph =
  let nregs = f.Rtl.f_next_reg in
  let cls = classes f in
  let lv = Liveness.analyze f in
  let g =
    { g_node = Array.make nregs false;
      g_adj = Array.init nregs (fun _ -> Bitrow.create nregs);
      g_uses = Array.make nregs 0;
      g_moves = [] }
  in
  let add_edge (a : Rtl.reg) (b : Rtl.reg) : unit =
    if a <> b then begin
      Bitrow.add g.g_adj.(a) b;
      Bitrow.add g.g_adj.(b) a
    end
  in
  let occurs (r : Rtl.reg) : unit =
    g.g_node.(r) <- true;
    g.g_uses.(r) <- g.g_uses.(r) + 1
  in
  let moves = ref [] in
  (* every mentioned register is a node *)
  List.iter (fun (r, _) -> g.g_node.(r) <- true) f.Rtl.f_params;
  List.iter
    (fun n ->
       let i = Rtl.get_instr f n in
       List.iter occurs (Rtl.instr_uses i);
       match Rtl.instr_def i with
       | Some d ->
         occurs d;
         (* a move's ends may share a location *)
         let src =
           match i with
           | Rtl.Iop (Rtl.Omove, [ s ], _, _) ->
             if cls.(s) = cls.(d) then moves := (d, s) :: !moves;
             s
           | _ -> d
         in
         Bitrow.iter
           (fun r ->
              if r <> d && r <> src && cls.(r) = cls.(d) then add_edge d r)
           (Liveness.live_after lv n)
       | None -> ())
    (Rtl.reverse_postorder f);
  (* parameters interfere with each other (they arrive simultaneously) *)
  let rec pairs = function
    | [] -> ()
    | (a, ca) :: rest ->
      List.iter (fun (b, cb) -> if ca = cb then add_edge a b) rest;
      pairs rest
  in
  pairs f.Rtl.f_params;
  { g with g_moves = !moves }

(* ---- coalescing ---------------------------------------------------- *)

(* The graph after coalescing: union-find over registers for the merged
   move webs, and for every web representative its row of neighbouring
   representatives with a running cardinality. *)
type merged = {
  m_parent : int array;
  m_adj : Bitrow.t array;
  m_deg : int array;
}

let rec find (m : merged) (r : Rtl.reg) : Rtl.reg =
  let p = m.m_parent.(r) in
  if p = r then r
  else begin
    let root = find m p in
    m.m_parent.(r) <- root;
    root
  end

(* Conservative (Briggs) coalescing: merge the ends of a move if the
   merged node would have fewer than K neighbors of significant degree,
   degrees counted before the merge. *)
let coalesce (g : graph) (cls : Rtl.mclass array) : merged =
  let m =
    { m_parent = Array.init (Array.length g.g_adj) Fun.id;
      m_adj = Array.map Bitrow.copy g.g_adj;
      m_deg = Array.map Bitrow.cardinal g.g_adj }
  in
  List.iter
    (fun (d, s) ->
       let rd = find m d and rs = find m s in
       if rd <> rs && not (Bitrow.mem m.m_adj.(rd) rs) then begin
         let k = List.length (palette cls.(d)) in
         let significant = ref 0 in
         Bitrow.iter_union
           (fun n -> if m.m_deg.(n) >= k then incr significant)
           m.m_adj.(rd) m.m_adj.(rs);
         if !significant < k then begin
           (* merge rs into rd: its neighbours see rd instead of rs *)
           m.m_parent.(rs) <- rd;
           Bitrow.iter
             (fun n ->
                let row = m.m_adj.(n) in
                Bitrow.remove row rs;
                if Bitrow.mem row rd then m.m_deg.(n) <- m.m_deg.(n) - 1
                else begin
                  Bitrow.add row rd;
                  m.m_deg.(rd) <- m.m_deg.(rd) + 1
                end)
             m.m_adj.(rs);
           ignore (Bitrow.union_into ~dst:m.m_adj.(rd) m.m_adj.(rs))
         end
       end)
    g.g_moves;
  m

(* ---- coloring ------------------------------------------------------ *)

let no_color = min_int

(* Simplify and select over the representatives of class [c], in
   ascending register order. Colors are palette entries; a spilled web
   gets [-1 - slot]. [m_deg] is consumed as the simplify degree. *)
let color_class (g : graph) (cls : Rtl.mclass array) (m : merged)
    (c : Rtl.mclass) (color : int array) (next_slot : int ref) : unit =
  let palette = palette c in
  let k = List.length palette in
  let deg = m.m_deg in
  let nodes =
    List.filter
      (fun r -> cls.(r) = c && find m r = r)
      (registers g)
  in
  let removed = Array.make (Array.length deg) false in
  let stack = ref [] in
  let remaining = ref (List.length nodes) in
  let spill_cost (r : Rtl.reg) : float =
    float_of_int (1 + g.g_uses.(r)) /. float_of_int (1 + deg.(r))
  in
  (* Simplify worklist: nodes of insignificant degree; when it dries up,
     optimistically remove the cheapest potential spill. *)
  let low = Queue.create () in
  List.iter (fun r -> if deg.(r) < k then Queue.add r low) nodes;
  let remove_node (r : Rtl.reg) : unit =
    removed.(r) <- true;
    stack := r :: !stack;
    decr remaining;
    Bitrow.iter
      (fun n ->
         if not removed.(n) then begin
           let d = deg.(n) in
           deg.(n) <- d - 1;
           if d = k then Queue.add n low
         end)
      m.m_adj.(r)
  in
  while !remaining > 0 do
    let rec pop_low () : Rtl.reg option =
      if Queue.is_empty low then None
      else
        let r = Queue.pop low in
        if removed.(r) then pop_low () else Some r
    in
    match pop_low () with
    | Some r -> remove_node r
    | None ->
      (* no trivially colorable node: pick the cheapest potential spill *)
      let candidate =
        List.fold_left
          (fun acc r ->
             if removed.(r) then acc
             else
               match acc with
               | Some best when spill_cost best <= spill_cost r -> acc
               | Some _ | None -> Some r)
          None nodes
      in
      (match candidate with
       | Some r -> remove_node r
       | None -> remaining := 0)
  done;
  (* pop and assign colors *)
  let taken = Array.make (1 + List.fold_left max 0 palette) false in
  List.iter
    (fun r ->
       Array.fill taken 0 (Array.length taken) false;
       Bitrow.iter
         (fun n -> let cn = color.(n) in if cn >= 0 then taken.(cn) <- true)
         m.m_adj.(r);
       match List.find_opt (fun c -> not taken.(c)) palette with
       | Some c -> color.(r) <- c
       | None ->
         (* actual spill: a fresh frame slot *)
         let s = !next_slot in
         incr next_slot;
         color.(r) <- -1 - s)
    !stack

type result = {
  ra_alloc : allocation;
  ra_nslots : int;
  ra_graph : graph;
}

let allocate (f : Rtl.func) : result =
  let g = build_graph f in
  let cls = classes f in
  let m = coalesce g cls in
  let color = Array.make (Array.length cls) no_color in
  let next_slot = ref 0 in
  color_class g cls m Rtl.Cint color next_slot;
  color_class g cls m Rtl.Cfloat color next_slot;
  (* write out locations for every register of the function *)
  let alloc : allocation = Array.make (Array.length cls) None in
  List.iter
    (fun r ->
       let c = color.(find m r) in
       alloc.(r) <-
         Some
           (if c >= 0 then reg_loc cls.(r) c
            else if c <> no_color then Lslot (-1 - c)
            else (* never colored: any location of the class works *)
              reg_loc cls.(r) (List.hd (palette cls.(r)))))
    (registers g);
  { ra_alloc = alloc; ra_nslots = !next_slot; ra_graph = g }

let location (res : result) (r : Rtl.reg) : loc =
  let a = res.ra_alloc in
  match if r >= 0 && r < Array.length a then a.(r) else None with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Regalloc.location: x%d unallocated" r)

(* ---- validation ---------------------------------------------------- *)

(* Independent check: rebuild liveness and verify that interfering
   registers (by the same construction rule as [build_graph]) never
   share a location. A deliberately corrupted allocation must be
   rejected — the test suite checks this by mutation. *)
let verify (f : Rtl.func) (res : result) : (unit, string) Result.t =
  let lv = Liveness.analyze f in
  let cls = classes f in
  let bad = ref None in
  List.iter
    (fun n ->
       let i = Rtl.get_instr f n in
       match Rtl.instr_def i with
       | Some d ->
         let src = match i with Rtl.Iop (Rtl.Omove, [ s ], _, _) -> s | _ -> d in
         Bitrow.iter
           (fun r ->
              if r <> d && r <> src && cls.(r) = cls.(d)
                 && loc_equal (location res r) (location res d)
                 && !bad = None then
                bad :=
                  Some
                    (Printf.sprintf
                       "node %d: x%d and x%d are simultaneously live in the same location"
                       n d r))
           (Liveness.live_after lv n)
       | None -> ())
    (Rtl.reverse_postorder f);
  match !bad with
  | None -> Ok ()
  | Some msg -> Error msg
