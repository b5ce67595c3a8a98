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
module IntMap = Map.Make (Int)

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
       let env_equal = IntMap.equal Int.equal in
       match run counting, run Vcomp.Gvn.invalidate_naive with
       | (tb, Some fast), (_, Some naive) ->
         Hashtbl.length fast = Hashtbl.length naive
         && Hashtbl.fold
              (fun n e ok ->
                 ok
                 && (match Hashtbl.find_opt naive n with
                     | Some e' -> env_equal e e'
                     | None -> false)
                 && List.for_all
                      (fun s ->
                         match Hashtbl.find_opt fast s with
                         | None -> true
                         | Some after ->
                           let kept = Vcomp.Gvn.invalidate_naive tb n after in
                           if IntMap.cardinal kept < IntMap.cardinal after then
                             incr gvn_dropped;
                           env_equal (Vcomp.Gvn.invalidate tb n after) kept)
                      (Vcomp.Rtl.successors (Vcomp.Rtl.get_instr f n)))
              fast true
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
