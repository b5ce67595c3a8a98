(* Tests for the verified-style compiler: selection, optimization
   passes (each under its translation validator), register allocation,
   and full-chain semantic preservation on random programs. *)

let checkb = Alcotest.check Alcotest.bool

let worlds (seed : int) = Minic.Interp.seeded_world ~seed ()

(* full-chain equivalence: interpreter vs simulator *)
let chain_equal ?(cycles = 3)
    (compile : Minic.Ast.program -> Target.Asm.program)
    (p : Minic.Ast.program) (seed : int) : bool =
  let asm = compile p in
  let lay = Target.Layout.build p asm in
  let ri = Minic.Interp.run_cycles p (worlds seed) ~cycles in
  let rs =
    (Target.Sim.run ~cycles ~source:p asm lay (worlds seed) []).Target.Sim.rr_result
  in
  Minic.Interp.result_equal ri rs

(* ---- selection ---- *)

let selection_preserves_prop =
  QCheck.Test.make ~count:100 ~name:"selection: RTL = source semantics"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       let ri = Minic.Interp.run_cycle p (worlds seed) in
       let rr = Vcomp.Rtl_interp.run rtl (worlds seed) [] in
       Minic.Interp.result_equal ri rr)

(* ---- optimization passes under their validators ---- *)

let pass_preserves (name : string) (pass : Vcomp.Rtl.program -> Vcomp.Rtl.program) =
  QCheck.Test.make ~count:80 ~name:(name ^ ": validated on random programs")
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       let before = Vcomp.Rtl.copy_program rtl in
       let after = pass rtl in
       (* the validator raises on any behaviour change *)
       Vcomp.Validate.check_pass ~pass:name ~before ~after;
       (* and the result still matches the source *)
       let ri = Minic.Interp.run_cycle p (worlds seed) in
       let rr = Vcomp.Rtl_interp.run after (worlds seed) [] in
       Minic.Interp.result_equal ri rr)

let constprop_prop = pass_preserves "constprop" Vcomp.Constprop.transform
let cse_prop = pass_preserves "cse" Vcomp.Cse.transform
let gvn_prop = pass_preserves "gvn" (fun p -> Vcomp.Gvn.transform p)
let licm_prop = pass_preserves "licm" (fun p -> Vcomp.Licm.transform p)

(* gvn after the local passes, like the real pipeline order *)
let gvn_after_cse_prop =
  QCheck.Test.make ~count:80 ~name:"gvn after constprop+cse: validated"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       let rtl = Vcomp.Cse.transform (Vcomp.Constprop.transform rtl) in
       let before = Vcomp.Rtl.copy_program rtl in
       let after = Vcomp.Gvn.transform rtl in
       Vcomp.Validate.check_pass ~pass:"gvn" ~before ~after;
       true)

(* GVN's reverse-indexed [invalidate] against the whole-environment
   filter it replaces: the in-environment fixpoints must be equal. The
   shortcut only applies to nodes no term mentions, so the test also
   counts the invalidations that took the filtering path: a loop body
   is re-analysed after its loads and acquisitions have named terms,
   so loop-carrying programs must take it.

   At the fixpoint no binding that mentions a node ever reaches that
   node again (the meet with the path from the entry drops it), so the
   two runs would agree even if invalidation did nothing. The test
   therefore also applies both filters, for every node, to the
   environments after it — where its terms are bound — and requires
   that they agree and that some binding was actually dropped. *)
let gvn_slow_path = ref 0
let gvn_dropped = ref 0

let gvn_fixpoints_agree (rtl : Vcomp.Rtl.program) : bool =
  List.for_all
    (fun f ->
       let counting tb n e =
         if Vcomp.Gvn.mentions tb n then incr gvn_slow_path;
         Vcomp.Gvn.invalidate tb n e
       in
       let run invalidate =
         let tb = Vcomp.Gvn.create_tables () in
         (tb, Vcomp.Gvn.analyze ~invalidate tb f ~fuel:200_000)
       in
       let env_equal = Vcomp.Ptmap.equal Int.equal in
       match run counting, run Vcomp.Gvn.invalidate_naive with
       | (tb, Some fast), (_, Some naive) ->
         let agree n e e' =
           match e, e' with
           | None, None -> true
           | Some e, Some e' ->
             env_equal e e'
             && List.for_all
                  (fun s ->
                     match fast.(s) with
                     | None -> true
                     | Some after ->
                       let kept = Vcomp.Gvn.invalidate_naive tb n after in
                       if Vcomp.Ptmap.cardinal kept
                          < Vcomp.Ptmap.cardinal after
                       then incr gvn_dropped;
                       env_equal (Vcomp.Gvn.invalidate tb n after) kept)
                  (Vcomp.Rtl.successors (Vcomp.Rtl.get_instr f n))
           | Some _, None | None, Some _ -> false
         in
         Array.length fast = Array.length naive
         && Array.for_all Fun.id (Array.mapi (fun n e -> agree n e naive.(n)) fast)
       | (_, None), (_, None) -> true
       | (_, Some _), (_, None) | (_, None), (_, Some _) -> false)
    rtl.Vcomp.Rtl.p_funcs

let gvn_pipeline_rtl (p : Minic.Ast.program) : Vcomp.Rtl.program =
  Vcomp.Cse.transform (Vcomp.Constprop.transform (Vcomp.Selection.trans_program p))

let gvn_invalidate_prop =
  QCheck.Test.make ~count:80 ~name:"gvn: indexed invalidate = naive filter"
    QCheck.small_int
    (fun seed ->
       gvn_fixpoints_agree
         (gvn_pipeline_rtl (Testlib.Gen.gen_program (seed land 0xFFFF))))

let gvn_loop_carrying_sources =
  [ {| global double g; global double s;
       double m() {
         var int i; var double x; var double y;
         x = $g;
         for (i = 0; i < 8) { y = x *. 2.0; x = $g +. y; $s = $s +. y; }
         return x *. 2.0;
       } main m; |};
    {| volatile in int sensor; global int t;
       int m() {
         var int i; var int acc; var int d;
         acc = 0;
         for (i = 0; i < 4) {
           d = volatile(sensor);
           acc = acc + d * 3;
           $t = d * 3;
         }
         return acc;
       } main m; |};
    {| array double a = { 1.0, 2.0, 3.0, 4.0 }; global double s;
       double m() {
         var int i; var double x;
         x = 0.0;
         for (i = 0; i < 4) { x = x +. $a[i] *. $a[i]; $s = x +. 1.0; }
         return x +. 1.0;
       } main m; |} ]

let gvn_invalidate_test =
  let name, speed, run = QCheck_alcotest.to_alcotest gvn_invalidate_prop in
  Alcotest.test_case name speed (fun () ->
      gvn_slow_path := 0;
      gvn_dropped := 0;
      List.iter
        (fun src ->
           let p = Minic.Parser.parse_program src in
           Minic.Typecheck.check_program_exn p;
           checkb "loop-carrying program: fixpoints agree" true
             (gvn_fixpoints_agree (gvn_pipeline_rtl p)))
        gvn_loop_carrying_sources;
      checkb "the filtering path fired on the loop-carrying programs" true
        (!gvn_slow_path > 0);
      checkb "the filter dropped bindings the shortcut had to keep" true
        (!gvn_dropped > 0);
      run ())

(* ---- the dataflow solver: worklist vs naive sweeps ---- *)

(* RPO position of every reachable node, and the back edges: those
   whose target does not come after their source. *)
let rpo_positions (f : Vcomp.Rtl.func) : (Vcomp.Rtl.node, int) Hashtbl.t =
  let pos = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.replace pos n i) (Vcomp.Rtl.reverse_postorder f);
  pos

let has_back_edge (f : Vcomp.Rtl.func) : bool =
  let pos = rpo_positions f in
  List.exists
    (fun n ->
       List.exists
         (fun s -> Hashtbl.find pos s <= Hashtbl.find pos n)
         (Vcomp.Rtl.successors (Vcomp.Rtl.get_instr f n)))
    (Vcomp.Rtl.reverse_postorder f)

let dataflow_loops = ref 0
let dataflow_drops = ref 0

(* [sol] solves [pb]'s equations: every reachable node holds the entry
   value or the join of its predecessors' out-values. *)
let is_fixpoint (f : Vcomp.Rtl.func) (pb : 'a Flow.Worklist.problem)
    (sol : 'a Flow.Worklist.solution) : bool =
  let preds = (Vcomp.Rtl.graph f).Flow.Graph.preds in
  let out p = pb.Flow.Worklist.transfer p (Option.get sol.(p)) in
  List.for_all
    (fun n ->
       match sol.(n), List.map out preds.(n) with
       | None, _ -> false
       | Some v, _ when n = f.Vcomp.Rtl.f_entry -> pb.equal v pb.entry
       | Some v, o :: os -> pb.equal v (List.fold_left pb.join o os)
       | Some _, [] -> false)
    (Vcomp.Rtl.reverse_postorder f)

(* Both solvers reach a fixpoint, the same one when [pb]'s transfer is
   monotone (constprop). GVN's is not: a register with no binding is
   named after the node that reads it, so where a binding gets dropped
   first decides which terms exist, and the order of the steps can
   select a different fixpoint — each one an inductive invariant, so
   sound, but not always the same one.

   The worklist solver must also step in RPO order: a transfer at a
   lower position than the previous one is only ever the previous
   node's back-edge successor (a FIFO worklist breaks this as soon as
   a loop holds a branch). *)
let solvers_agree ~exact (f : Vcomp.Rtl.func) (pb : 'a Flow.Worklist.problem) :
  bool =
  let pos = rpo_positions f in
  let last = ref None and in_order = ref true in
  let transfer n v =
    (match !last with
     | Some l when Hashtbl.find pos n < Hashtbl.find pos l ->
       incr dataflow_drops;
       if not (List.mem n (Vcomp.Rtl.successors (Vcomp.Rtl.get_instr f l)))
       then in_order := false
     | Some _ | None -> ());
    last := Some n;
    pb.Flow.Worklist.transfer n v
  in
  if has_back_edge f then incr dataflow_loops;
  let same x y =
    match x, y with
    | None, None -> true
    | Some x, Some y -> pb.Flow.Worklist.equal x y
    | Some _, None | None, Some _ -> false
  in
  let g = Vcomp.Rtl.graph f in
  match Flow.Worklist.forward g { pb with Flow.Worklist.transfer } with
  | None -> false
  | Some fast ->
    let naive = Flow.Worklist.forward_naive g pb in
    !in_order && is_fixpoint f pb fast && is_fixpoint f pb naive
    && ((not exact) || Array.for_all2 same fast naive)

let solvers_agree_on ~gvn_exact (p : Minic.Ast.program) : bool =
  List.for_all
    (fun f -> solvers_agree ~exact:true f (Vcomp.Constprop.problem f))
    (Vcomp.Selection.trans_program p).Vcomp.Rtl.p_funcs
  && List.for_all
    (fun f ->
       solvers_agree ~exact:gvn_exact f
         (Vcomp.Gvn.problem (Vcomp.Gvn.create_tables ()) f))
    (gvn_pipeline_rtl p).Vcomp.Rtl.p_funcs

let dataflow_prop =
  QCheck.Test.make ~count:80
    ~name:"dataflow: worklist and naive sweeps reach the fixpoint"
    QCheck.small_int
    (fun seed ->
       solvers_agree_on ~gvn_exact:false
         (Testlib.Gen.gen_program (seed land 0xFFFF)))

let dataflow_test =
  let name, speed, run = QCheck_alcotest.to_alcotest dataflow_prop in
  Alcotest.test_case name speed (fun () ->
      dataflow_loops := 0;
      dataflow_drops := 0;
      run ();
      List.iter
        (fun src ->
           let p = Minic.Parser.parse_program src in
           Minic.Typecheck.check_program_exn p;
           checkb "loop-carrying program: the same fixpoints" true
             (solvers_agree_on ~gvn_exact:true p))
        gvn_loop_carrying_sources;
      checkb "loops occurred" true (!dataflow_loops > 0);
      checkb "some back edge re-stepped a loop" true (!dataflow_drops > 0))

(* On an acyclic function the worklist steps each node exactly once,
   forward (constprop, GVN) and backward (liveness): the budget of one
   step per node converges, one step less does not. *)
let test_dataflow_acyclic_once () =
  let acyclic = ref 0 in
  for seed = 0 to 299 do
    List.iter
      (fun f ->
         if not (has_back_edge f) then begin
           incr acyclic;
           let n = List.length (Vcomp.Rtl.reverse_postorder f) in
           let g = Vcomp.Rtl.graph f in
           let steps pb fuel = Flow.Worklist.forward ~fuel g pb <> None in
           let cp = Vcomp.Constprop.problem f in
           let gvn = Vcomp.Gvn.problem (Vcomp.Gvn.create_tables ()) f in
           let live fuel = Vcomp.Liveness.solve ~fuel f <> None in
           checkb "constprop: n steps suffice" true (steps cp n);
           checkb "constprop: n - 1 steps do not" false (steps cp (n - 1));
           checkb "gvn: n steps suffice" true (steps gvn n);
           checkb "gvn: n - 1 steps do not" false (steps gvn (n - 1));
           checkb "liveness: n steps suffice" true (live n);
           checkb "liveness: n - 1 steps do not" false (live (n - 1))
         end)
      (Vcomp.Selection.trans_program (Testlib.Gen.gen_program seed))
        .Vcomp.Rtl.p_funcs
  done;
  checkb "acyclic functions occurred" true (!acyclic > 0)

(* The shared DFS takes a node's successors in list order. Selection
   emits a while loop's test as [Icond (c, body, exit)], so the body is
   searched first and finishes first, and the exit code comes before
   the body in reverse postorder. GVN's transfer is not monotone, so
   its fixpoint, and with it the emitted code, depends on this order:
   a last-successor-first search changes GVN rewrites on real nodes. *)
let test_rpo_exit_before_body () =
  let p =
    Minic.Parser.parse_program
      {| int m() {
           var int i;
           i = 0;
           while (i < 10) { i = i + 1; }
           return i;
         } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let f = List.hd (Vcomp.Selection.trans_program p).Vcomp.Rtl.p_funcs in
  let g = Vcomp.Rtl.graph f in
  let conds =
    List.filter_map
      (fun n ->
         match Vcomp.Rtl.get_instr f n with
         | Vcomp.Rtl.Icond (_, _, body, exit) -> Some (body, exit)
         | _ -> None)
      (Vcomp.Rtl.reverse_postorder f)
  in
  match conds with
  | [ (body, exit) ] ->
    checkb "exit before body in RPO" true
      (g.Flow.Graph.pos.(exit) < g.Flow.Graph.pos.(body))
  | _ -> Alcotest.fail "expected one loop test"

(* ---- Ptmap against Map.Make (Int) ---- *)

module IntMap = Map.Make (Int)

type map_op =
  | Add of int * int
  | Remove of int
  | Filter of int (* keep keys not divisible by it *)

let map_op_gen : map_op QCheck.Gen.t =
  let key = QCheck.Gen.int_bound 300 and value = QCheck.Gen.int_bound 3 in
  QCheck.Gen.frequency
    [ (6, QCheck.Gen.map2 (fun k v -> Add (k, v)) key value);
      (2, QCheck.Gen.map (fun k -> Remove k) key);
      (1, QCheck.Gen.map (fun d -> Filter (d + 2)) (QCheck.Gen.int_bound 5)) ]

let apply_ops ops =
  List.fold_left
    (fun (pt, m) op ->
       match op with
       | Add (k, v) -> (Vcomp.Ptmap.add k v pt, IntMap.add k v m)
       | Remove k -> (Vcomp.Ptmap.remove k pt, IntMap.remove k m)
       | Filter d ->
         let keep k _ = k mod d <> 0 in
         (Vcomp.Ptmap.filter keep pt, IntMap.filter keep m))
    (Vcomp.Ptmap.empty, IntMap.empty) ops

(* In ascending key order, as [fold] visits them. *)
let ptmap_bindings pt =
  List.rev (Vcomp.Ptmap.fold (fun k v acc -> (k, v) :: acc) pt [])

let ptmap_prop =
  QCheck.Test.make ~count:300
    ~name:"ptmap: add/remove/find/filter/inter/equal/fold = Map.Make (Int)"
    QCheck.(pair (make QCheck.Gen.(list map_op_gen)) (make QCheck.Gen.(list map_op_gen)))
    (fun (ops_a, ops_b) ->
       let pa, ma = apply_ops ops_a and pb, mb = apply_ops ops_b in
       (* b also shares a's tree: a's bindings, then b's operations *)
       let pc, mc = apply_ops (ops_a @ ops_b) in
       let model_agrees pt m =
         ptmap_bindings pt = IntMap.bindings m
         && Vcomp.Ptmap.cardinal pt = IntMap.cardinal m
         && List.for_all
              (fun k -> Vcomp.Ptmap.find_opt k pt = IntMap.find_opt k m)
              (List.init 302 Fun.id)
       in
       let model_inter m m' =
         IntMap.merge
           (fun _ x y ->
              match x, y with Some x, Some y when x = y -> Some x | _ -> None)
           m m'
       in
       List.for_all
         (fun ((pt, m), (pt', m')) ->
            model_agrees pt m
            && model_agrees (Vcomp.Ptmap.inter Int.equal pt pt') (model_inter m m')
            && Vcomp.Ptmap.equal Int.equal pt pt' = IntMap.equal Int.equal m m')
         [ ((pa, ma), (pb, mb)); ((pa, ma), (pc, mc)); ((pc, mc), (pa, ma));
           ((pb, mb), (pc, mc)) ]
       (* the sharing fast paths *)
       && Vcomp.Ptmap.inter Int.equal pa pa == pa
       && Vcomp.Ptmap.filter (fun _ _ -> true) pa == pa
       && List.for_all
            (fun (k, v) -> Vcomp.Ptmap.add k v pa == pa)
            (ptmap_bindings pa))

let deadcode_prop =
  QCheck.Test.make ~count:80 ~name:"deadcode after cse: validated"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       let rtl = Vcomp.Cse.transform rtl in
       let before = Vcomp.Rtl.copy_program rtl in
       let after = Vcomp.Deadcode.transform rtl in
       Vcomp.Validate.check_pass ~pass:"deadcode" ~before ~after;
       true)

(* constprop folds a fully constant computation to a constant *)
let test_constprop_folds () =
  let p =
    Minic.Parser.parse_program
      {| int m() { var int a; var int b; a = 6; b = 7; return a * b; } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let rtl = Vcomp.Selection.trans_program p in
  let rtl = Vcomp.Constprop.transform rtl in
  let f = List.hd rtl.Vcomp.Rtl.p_funcs in
  let found_const_42 = ref false in
  List.iter
    (fun n ->
       match Vcomp.Rtl.get_instr f n with
       | Vcomp.Rtl.Iop (Vcomp.Rtl.Ointconst 42l, _, _, _) ->
         found_const_42 := true
       | _ -> ())
    (Vcomp.Rtl.reverse_postorder f);
  checkb "6*7 folded to 42" true !found_const_42

(* cse: the duplicate load disappears after cse+deadcode *)
let test_cse_removes_duplicate_load () =
  let p =
    Minic.Parser.parse_program
      {| global double g; double m() { return $g +. $g; } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let count_loads rtl =
    let f = List.hd rtl.Vcomp.Rtl.p_funcs in
    List.length
      (List.filter
         (fun n ->
            match Vcomp.Rtl.get_instr f n with
            | Vcomp.Rtl.Iload _ -> true
            | _ -> false)
         (Vcomp.Rtl.reverse_postorder f))
  in
  let rtl = Vcomp.Selection.trans_program p in
  Alcotest.check Alcotest.int "two loads before" 2 (count_loads rtl);
  let rtl = Vcomp.Deadcode.transform (Vcomp.Cse.transform rtl) in
  Alcotest.check Alcotest.int "one load after" 1 (count_loads rtl)

(* ---- liveness: worklist vs naive fixpoint ---- *)

let liveness_prop =
  QCheck.Test.make ~count:60 ~name:"liveness: worklist = naive fixpoint"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       List.for_all
         (fun f ->
            let fast = Vcomp.Liveness.analyze f in
            let slow = Vcomp.Liveness.analyze_naive f in
            List.for_all
              (fun n ->
                 let row = Vcomp.Liveness.live_after fast n in
                 let set = Vcomp.Liveness.naive_after slow n in
                 List.for_all
                   (fun r -> Vcomp.Liveness.RegSet.mem r set)
                   (Vcomp.Bitrow.elements row)
                 && Vcomp.Liveness.RegSet.for_all (Vcomp.Bitrow.mem row) set)
              (Vcomp.Rtl.reverse_postorder f))
         rtl.Vcomp.Rtl.p_funcs)

(* ---- register allocation ---- *)

let regalloc_valid_prop =
  QCheck.Test.make ~count:80 ~name:"regalloc: validator accepts all allocations"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       List.for_all
         (fun f ->
            let res = Vcomp.Regalloc.allocate f in
            match Vcomp.Regalloc.verify f res with
            | Ok () -> true
            | Error _ -> false)
         rtl.Vcomp.Rtl.p_funcs)

(* mutation testing of the validator: merging an interfering pair must
   be rejected. A seed whose function has no interfering pair to corrupt
   proves nothing, so the test also requires that some seeds did
   corrupt a real pair. *)
let regalloc_mutation_corrupted = ref 0

let regalloc_mutation_prop =
  QCheck.Test.make ~count:60 ~name:"regalloc: corrupted allocation rejected"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       let f = List.hd rtl.Vcomp.Rtl.p_funcs in
       let res = Vcomp.Regalloc.allocate f in
       let g = res.Vcomp.Regalloc.ra_graph in
       (* find an interfering pair with different locations *)
       let victim =
         List.find_map
           (fun a ->
              List.find_map
                (fun b ->
                   if Vcomp.Rtl.reg_class f a = Vcomp.Rtl.reg_class f b
                   && not
                        (Vcomp.Regalloc.loc_equal
                           (Vcomp.Regalloc.location res a)
                           (Vcomp.Regalloc.location res b))
                   then Some (a, b)
                   else None)
                (Vcomp.Regalloc.neighbours g a))
           (Vcomp.Regalloc.registers g)
       in
       match victim with
       | None -> true (* nothing to corrupt in a tiny function *)
       | Some (a, b) ->
         incr regalloc_mutation_corrupted;
         res.Vcomp.Regalloc.ra_alloc.(a) <- Some (Vcomp.Regalloc.location res b);
         (match Vcomp.Regalloc.verify f res with
          | Ok () -> false (* must be rejected *)
          | Error _ -> true))

let regalloc_mutation_test =
  let name, speed, run = QCheck_alcotest.to_alcotest regalloc_mutation_prop in
  Alcotest.test_case name speed (fun () ->
      regalloc_mutation_corrupted := 0;
      run ();
      checkb "some seed corrupted a real interfering pair" true
        (!regalloc_mutation_corrupted > 0))

(* ---- full chain ---- *)

let full_chain_prop =
  QCheck.Test.make ~count:120 ~name:"vcomp: machine = source on random programs"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       chain_equal
         (Vcomp.Driver.compile ~options:Vcomp.Driver.no_validation)
         p seed)

let full_chain_validated_prop =
  QCheck.Test.make ~count:30
    ~name:"vcomp: per-pass validators pass on random programs"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFF) in
       ignore (Vcomp.Driver.compile p); (* validators on: raises on failure *)
       true)

(* NaN behaviour through the whole chain *)
let test_nan_comparisons_compiled () =
  let p =
    Minic.Parser.parse_program
      {| global double g;
         double m() {
           var double n; var double r;
           n = 0x0p+0 /. 0x0p+0;
           if (n <=. 1.0) { r = 1.0; } else { r = 2.0; }
           if (n >=. 1.0) { r = r +. 10.0; } else { r = r +. 20.0; }
           if (n !=. n) { r = r +. 100.0; } else { r = r +. 200.0; }
           return r;
         } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  List.iter
    (fun (name, compile) ->
       checkb name true (chain_equal compile p 1))
    [ ("vcomp NaN", Vcomp.Driver.compile ~options:Vcomp.Driver.no_validation);
      ("cotsc O0 NaN", Cotsc.Driver.compile ~level:Cotsc.Driver.Onone ~contract_fma:false);
      ("cotsc O2 NaN",
       Cotsc.Driver.compile ~level:Cotsc.Driver.Ofull ~contract_fma:false) ]

(* ---- the pass manager ---- *)

(* a deliberately wrong rewrite must be caught by the per-pass
   validator: [Pass.run_pipeline] wraps every pass in
   [Validate.check_pass], so a miscompiling pass cannot slip through
   when validation is on *)
let test_wrong_rewrite_caught () =
  let p =
    Minic.Parser.parse_program
      {| global double g; double m() { return 5.0 -. $g; } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let rtl = Vcomp.Selection.trans_program p in
  let before = Vcomp.Rtl.copy_program rtl in
  (* "optimize" by swapping the operands of the subtraction — the
     classic wrong-but-plausible strength rewrite *)
  let f = List.hd rtl.Vcomp.Rtl.p_funcs in
  let corrupted = ref false in
  List.iter
    (fun n ->
       match Vcomp.Rtl.get_instr f n with
       | Vcomp.Rtl.Iop (Vcomp.Rtl.Ofsub, [ a; b ], d, s) when not !corrupted ->
         corrupted := true;
         Vcomp.Rtl.set_instr f n (Vcomp.Rtl.Iop (Vcomp.Rtl.Ofsub, [ b; a ], d, s))
       | _ -> ())
    (Vcomp.Rtl.reverse_postorder f);
  checkb "found a subtraction to corrupt" true !corrupted;
  checkb "validator rejects the wrong rewrite" true
    (match Vcomp.Validate.check_pass ~pass:"evil" ~before ~after:rtl with
     | () -> false
     | exception Vcomp.Validate.Validation_failed _ -> true)

(* GVN deduplicates repeated float constants across blocks (the local
   CSE misses them once control flow splits) *)
let test_gvn_dedups_float_constants () =
  let p =
    Minic.Parser.parse_program
      {| global double g; global double h;
         double m() {
           $h = $g *. 2.5;
           if ($g <. 1.0) { $h = $h +. 2.5; } else { $h = $h -. 2.5; }
           return $h *. 2.5;
         } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let count_fconsts rtl =
    let f = List.hd rtl.Vcomp.Rtl.p_funcs in
    List.length
      (List.filter
         (fun n ->
            match Vcomp.Rtl.get_instr f n with
            | Vcomp.Rtl.Iop (Vcomp.Rtl.Ofloatconst _, _, _, _) -> true
            | _ -> false)
         (Vcomp.Rtl.reverse_postorder f))
  in
  let rtl = Vcomp.Selection.trans_program p in
  let without =
    count_fconsts
      (Vcomp.Deadcode.transform
         (Vcomp.Cse.transform (Vcomp.Rtl.copy_program rtl)))
  in
  let with_gvn =
    count_fconsts
      (Vcomp.Deadcode.transform (Vcomp.Gvn.transform (Vcomp.Cse.transform rtl)))
  in
  checkb
    (Printf.sprintf "gvn reduces float-const ops (%d -> %d)" without with_gvn)
    true
    (with_gvn < without)

(* LICM hoists the invariant multiply out of the loop: the WCET bound
   (which charges the loop body per iteration) must strictly improve *)
let test_licm_improves_loop_wcet () =
  let p =
    Minic.Parser.parse_program
      {| global double g; global double s;
         double m() {
           var int i;
           for (i = 0; i < 16) { $s = $s +. ($g *. 2.0 *. 4.0); }
           return $s;
         } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let wcet options =
    let asm = Vcomp.Driver.compile ~options p in
    let lay = Target.Layout.build p asm in
    (Wcet.Driver.analyze
       ~spec:("vcomp:" ^ Vcomp.Pass.spec options) asm lay)
      .Wcet.Report.rp_wcet
  in
  let off = wcet Vcomp.Driver.{ no_validation with opt_licm = false } in
  let on_ = wcet Vcomp.Driver.no_validation in
  checkb (Printf.sprintf "licm tightens the bound (%d < %d)" on_ off) true
    (on_ < off)

(* spec strings round-trip through the parser *)
let test_pass_spec_roundtrip () =
  let check_rt (o : Vcomp.Pass.options) =
    match Vcomp.Pass.of_spec (Vcomp.Pass.spec o) with
    | Ok o' ->
      Alcotest.check Alcotest.string "spec round-trips"
        (Vcomp.Pass.spec o) (Vcomp.Pass.spec o')
    | Error e -> Alcotest.fail e
  in
  List.iter check_rt
    [ Vcomp.Pass.default_options;
      Vcomp.Pass.all_off;
      Vcomp.Pass.level 0;
      Vcomp.Pass.level 1;
      Vcomp.Pass.level 2;
      { Vcomp.Pass.default_options with Vcomp.Pass.opt_licm = false };
      { Vcomp.Pass.default_options with Vcomp.Pass.opt_gvn = false } ];
  checkb "unknown pass rejected" true
    (Result.is_error (Vcomp.Pass.of_spec "constprop,vectorize"));
  checkb "level 1 disables gvn" true
    (not (Vcomp.Pass.level 1).Vcomp.Pass.opt_gvn);
  checkb "level 2 enables licm" true (Vcomp.Pass.level 2).Vcomp.Pass.opt_licm

(* exhausted fuel skips the pass instead of rewriting from an
   unconverged analysis: the output still matches the source *)
let starved_passes_prop =
  QCheck.Test.make ~count:40 ~name:"gvn/licm with starved fuel: still correct"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFF) in
       chain_equal
         (Vcomp.Driver.compile
            ~options:Vcomp.Driver.{ no_validation with opt_fuel = 3 })
         p seed)

(* ablation configurations stay correct *)
let ablation_chain_prop =
  QCheck.Test.make ~count:40 ~name:"vcomp ablations: still semantics-preserving"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFF) in
       List.for_all
         (fun options ->
            chain_equal (Vcomp.Driver.compile ~options) p seed)
         [ Vcomp.Driver.{ no_validation with opt_constprop = false };
           Vcomp.Driver.{ no_validation with opt_cse = false };
           Vcomp.Driver.{ no_validation with opt_gvn = false };
           Vcomp.Driver.{ no_validation with opt_licm = false };
           Vcomp.Driver.{ no_validation with opt_deadcode = false };
           { Vcomp.Pass.all_off with Vcomp.Pass.opt_validate = false } ])

let suite =
  [ QCheck_alcotest.to_alcotest selection_preserves_prop;
    QCheck_alcotest.to_alcotest constprop_prop;
    QCheck_alcotest.to_alcotest cse_prop;
    QCheck_alcotest.to_alcotest gvn_prop;
    QCheck_alcotest.to_alcotest licm_prop;
    QCheck_alcotest.to_alcotest gvn_after_cse_prop;
    gvn_invalidate_test;
    dataflow_test;
    ("dataflow: each node stepped once on acyclic functions", `Quick,
     test_dataflow_acyclic_once);
    ("rpo: a while loop's exit precedes its body", `Quick,
     test_rpo_exit_before_body);
    QCheck_alcotest.to_alcotest ptmap_prop;
    QCheck_alcotest.to_alcotest deadcode_prop;
    ("constprop folds constants", `Quick, test_constprop_folds);
    ("cse removes duplicate loads", `Quick, test_cse_removes_duplicate_load);
    QCheck_alcotest.to_alcotest liveness_prop;
    QCheck_alcotest.to_alcotest regalloc_valid_prop;
    regalloc_mutation_test;
    QCheck_alcotest.to_alcotest full_chain_prop;
    QCheck_alcotest.to_alcotest full_chain_validated_prop;
    ("NaN comparisons through the chain", `Quick, test_nan_comparisons_compiled);
    ("wrong rewrite caught by the pass validator", `Quick,
     test_wrong_rewrite_caught);
    ("gvn dedups float constants across blocks", `Quick,
     test_gvn_dedups_float_constants);
    ("licm tightens the loop WCET bound", `Quick, test_licm_improves_loop_wcet);
    ("pass spec round-trips", `Quick, test_pass_spec_roundtrip);
    QCheck_alcotest.to_alcotest starved_passes_prop;
    QCheck_alcotest.to_alcotest ablation_chain_prop ]
