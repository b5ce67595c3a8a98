(* Global CSE by value numbering over the whole RTL CFG, after
   Monniaux & Six ("Simple, Light, Yet Formally Verified, Global CSE
   and Loop-Invariant Code Motion"): a forward dataflow analysis maps
   each pseudo-register to a hash-consed symbolic term; an operation
   whose term is already held by another register of the same class is
   rewritten to a move (or to a no-op when the destination itself
   already holds it). Local value numbering ([Cse]) stays responsible
   for memoizing loads under memory epochs; this pass only numbers
   pure operations, so it needs no alias reasoning, and its soundness
   is re-checked per run by [Validate.check_pass] in the spirit of the
   paper's verified translation validation.

   Term language. [Tinit r] is the entry value of register [r] (the
   parameters). A pure operation over known terms is [Top]. A value the
   analysis cannot symbolize — a load, a volatile acquisition, a use of
   a register with no current binding — is named by the *node* that
   produced it: [Topaque n] for opaque definitions, [Targ (n, i)] for
   the i-th argument of node [n] at its most recent execution. Naming
   by node keeps the fixpoint deterministic (no fresh-name supply), at
   the price of a staleness hazard across loop iterations: a register
   bound to a node-[n] term denotes "the value node [n] produced *last
   time*", which the next execution of [n] silently changes. The
   transfer function therefore *invalidates* — drops — every binding
   mentioning node [n] before it (re)executes [n], so stale terms can
   never witness a false equality. The hash-cons tables keep a reverse
   index of the nodes any term mentions, so invalidating a node no term
   mentions — every pure operation whose arguments are all bound —
   returns the environment untouched instead of filtering all of it;
   [invalidate_naive], the plain filter, is the test oracle.

   The fixpoint is the shared [Flow.Worklist.forward] solver over [Ptmap]
   environments: the meet is a sharing-aware intersection and the
   comparison stops at shared subtrees, so both cost what differs
   between two environments, not their size. The transfer is not
   monotone (an unbound register is named after the node that reads
   it), so the order of the steps can select a different, equally
   sound fixpoint; the solver's order is fixed, which keeps the pass
   deterministic. The fixpoint runs under a fuel budget of solver
   steps: if it has not converged within the budget, the pass skips
   the function (identity), never rewrites from an unconverged
   analysis. *)

module IntSet = Set.Make (Int)

type opkey =
  | Kop of Rtl.operation (* never [Ofloatconst]: floats are normalized *)
  | Kfconst of int64     (* float constant by bit pattern *)

type tkey =
  | Tinit of Rtl.reg
  | Topaque of Rtl.node
  | Targ of Rtl.node * int
  | Top of opkey * int list (* operation over term ids *)

(* Hash-consing tables: structural term -> id, id -> set of nodes the
   term mentions (for invalidation), and the reverse index: every node
   some term mentions. A node absent from [mentioned] appears in no
   binding of any environment, so invalidating it is the identity. *)
type tables = {
  mutable next_id : int;
  ids : (tkey, int) Hashtbl.t;
  deps : (int, IntSet.t) Hashtbl.t;
  mentioned : (Rtl.node, unit) Hashtbl.t;
}

let create_tables () : tables =
  { next_id = 0; ids = Hashtbl.create 251; deps = Hashtbl.create 251;
    mentioned = Hashtbl.create 61 }

let term (tb : tables) (k : tkey) : int =
  match Hashtbl.find_opt tb.ids k with
  | Some id -> id
  | None ->
    let id = tb.next_id in
    tb.next_id <- id + 1;
    Hashtbl.replace tb.ids k id;
    let d =
      match k with
      | Tinit _ -> IntSet.empty
      | Topaque n | Targ (n, _) ->
        Hashtbl.replace tb.mentioned n ();
        IntSet.singleton n
      | Top (_, args) ->
        List.fold_left
          (fun acc a -> IntSet.union acc (Hashtbl.find tb.deps a))
          IntSet.empty args
    in
    Hashtbl.replace tb.deps id d;
    id

let opkey (op : Rtl.operation) : opkey =
  match op with
  | Rtl.Ofloatconst c -> Kfconst (Int64.bits_of_float c)
  | _ -> Kop op

(* Abstract environment: register -> term id; absent = unknown. *)
type env = int Ptmap.t

let mentions (tb : tables) (n : Rtl.node) : bool = Hashtbl.mem tb.mentioned n

(* Drop every binding whose term mentions node [n], by a filter over
   the whole environment. *)
let invalidate_naive (tb : tables) (n : Rtl.node) (e : env) : env =
  Ptmap.filter (fun _ t -> not (IntSet.mem n (Hashtbl.find tb.deps t))) e

(* The same result, skipping the filter when no term mentions [n] —
   the case of every pure operation whose arguments are all bound. *)
let invalidate (tb : tables) (n : Rtl.node) (e : env) : env =
  if mentions tb n then invalidate_naive tb n e else e

(* Resolve the arguments of node [n]; unmapped arguments are named
   [Targ (n, i)] and the name is recorded for the argument register
   itself, so a later identical operation on untouched registers still
   numbers equal. *)
let resolve_args (tb : tables) (n : Rtl.node) (args : Rtl.reg list) (e : env) :
  env * int list =
  let e, rev =
    List.fold_left
      (fun (e, acc) r ->
         match Ptmap.find_opt r e with
         | Some t -> (e, t :: acc)
         | None ->
           let t = term tb (Targ (n, List.length acc)) in
           (Ptmap.add r t e, t :: acc))
      (e, []) args
  in
  (e, List.rev rev)

let transfer ~invalidate (tb : tables) (f : Rtl.func) (n : Rtl.node) (e : env) :
  env =
  match Rtl.get_instr f n with
  | Rtl.Iop (Rtl.Omove, [ src ], d, _) ->
    let e = invalidate tb n e in
    (match Ptmap.find_opt src e with
     | Some t -> Ptmap.add d t e
     | None ->
       (* source and destination now hold the same (unknown) value *)
       let t = term tb (Targ (n, 0)) in
       Ptmap.add src t (Ptmap.add d t e))
  | Rtl.Iop (op, args, d, _) ->
    let e = invalidate tb n e in
    let e, ts = resolve_args tb n args e in
    Ptmap.add d (term tb (Top (opkey op, ts))) e
  | Rtl.Iload (_, _, _, d, _) | Rtl.Iacq (_, d, _) ->
    let e = invalidate tb n e in
    Ptmap.add d (term tb (Topaque n)) e
  | Rtl.Inop _ | Rtl.Istore _ | Rtl.Icond _ | Rtl.Iout _ | Rtl.Iannot _
  | Rtl.Ireturn _ -> e

(* Meet at merge points: keep only bindings on which all predecessors
   agree. Terms are hash-consed, so agreement is id equality, and the
   result shares every subtree the two sides share. *)
let meet : env -> env -> env = Ptmap.inter Int.equal

(* The parameters hold their entry values. *)
let problem ?(invalidate = invalidate) (tb : tables) (f : Rtl.func) :
  env Flow.Worklist.problem =
  { Flow.Worklist.entry =
      List.fold_left
        (fun e (r, _) -> Ptmap.add r (term tb (Tinit r)) e)
        Ptmap.empty f.Rtl.f_params;
    transfer = transfer ~invalidate tb f;
    join = meet;
    equal = Ptmap.equal Int.equal }

let analyze ?invalidate (tb : tables) (f : Rtl.func) ~(fuel : int) :
  env Flow.Worklist.solution option =
  Flow.Worklist.forward ~fuel (Rtl.graph f) (problem ?invalidate tb f)

(* Rewriting. At a pure non-move operation whose arguments all have
   terms, look the result term up: if the destination already holds it
   the instruction is redundant (no-op); if another same-class register
   holds it, rewrite to a move from the smallest such register (the
   deterministic representative). Integer constants are left alone —
   rematerializing them is as cheap as a move — but float constants are
   numbered: every duplicate avoided is a constant-pool load. *)
let rewrite_func (tb : tables) (in_env : env Flow.Worklist.solution)
    (f : Rtl.func) : unit =
  let class_of r = Hashtbl.find_opt f.Rtl.f_classes r in
  List.iter
    (fun n ->
       match Rtl.get_instr f n with
       | Rtl.Iop (Rtl.Omove, _, _, _) | Rtl.Iop (Rtl.Ointconst _, _, _, _) -> ()
       | Rtl.Iop (op, args, d, s) ->
         let e = Option.value ~default:Ptmap.empty in_env.(n) in
         let ts =
           List.fold_right
             (fun r acc ->
                match acc, Ptmap.find_opt r e with
                | Some ts, Some t -> Some (t :: ts)
                | _, _ -> None)
             args (Some [])
         in
         (match ts with
          | None -> ()
          | Some ts ->
            (match Hashtbl.find_opt tb.ids (Top (opkey op, ts)) with
             | None -> ()
             | Some t ->
               if Ptmap.find_opt d e = Some t then
                 (* destination already holds the value *)
                 Rtl.set_instr f n (Rtl.Inop s)
               else begin
                 let candidate =
                   Ptmap.fold
                     (fun r t' best ->
                        if t' = t && r <> d && class_of r = class_of d then
                          match best with
                          | Some b when b <= r -> best
                          | _ -> Some r
                        else best)
                     e None
                 in
                 match candidate with
                 | Some r ->
                   Rtl.set_instr f n (Rtl.Iop (Rtl.Omove, [ r ], d, s))
                 | None -> ()
               end))
       | _ -> ())
    (Rtl.reverse_postorder f)

let transform_func ~(fuel : int) (f : Rtl.func) : unit =
  let tb = create_tables () in
  match analyze tb f ~fuel with
  | None -> () (* fuel exhausted: skip, never rewrite unconverged *)
  | Some in_env -> rewrite_func tb in_env f

let transform ?(fuel = 200_000) (p : Rtl.program) : Rtl.program =
  List.iter (transform_func ~fuel) p.Rtl.p_funcs;
  p
