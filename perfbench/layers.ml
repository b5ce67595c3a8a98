(* The traced run's decomposition of the toolchain: the same work as
   [Chain.build], [Wcet.Driver.analyze] and [Chain.validate_chain],
   done one layer at a time through each layer's public functions,
   with a span around every call. The workloads check on every node
   that the decomposition produces what the real path produces, so
   the per-layer numbers describe the program that was measured. *)

open Fcstack

let span = Trace.span

(* -- compile ----------------------------------------------------------- *)

(* [Vcomp.Driver.compile_full] + [Target.Layout.build], as [Chain.build]
   runs them. [Vcomp.Pass.run_pipeline] snapshots the RTL before every
   enabled pass (for its stats and the validator), transforms, then
   validates the pass when asked to. *)
let vcomp_build ~(validate : bool) (src : Minic.Ast.program) : Chain.built =
  let opts = { Vcomp.Pass.default_options with opt_validate = validate } in
  span "minic.typecheck" (fun () -> Minic.Typecheck.check_program_exn src);
  let rtl = span "vcomp.selection" (fun () -> Vcomp.Selection.trans_program src) in
  let rtl =
    List.fold_left
      (fun p (pass : Vcomp.Pass.pass) ->
         if not (pass.enabled_by opts) then p
         else begin
           let before = span "vcomp.snapshot" (fun () -> Vcomp.Rtl.copy_program p) in
           let after =
             span ("vcomp." ^ pass.name) (fun () ->
                 pass.transform ~fuel:opts.opt_fuel p)
           in
           if validate then
             span "vcomp.validate" (fun () ->
                 Vcomp.Validate.check_pass ~pass:pass.name ~before ~after);
           after
         end)
      rtl Vcomp.Pass.pipeline
  in
  let asm = span "vcomp.asmgen" (fun () -> Vcomp.Asmgen.translate_program rtl) in
  { Chain.b_source = src;
    b_asm = asm;
    b_layout = span "target.layout" (fun () -> Target.Layout.build src asm);
    b_compiler = Chain.Cvcomp;
    b_spec = Chain.pipeline_spec Chain.Cvcomp;
    b_pass_stats = [] }

(* [Chain.build Cdefault_o0]. *)
let o0_build (src : Minic.Ast.program) : Chain.built =
  let asm =
    span "cotsc.compile" (fun () ->
        Cotsc.Driver.compile ~level:Cotsc.Driver.Onone src)
  in
  { Chain.b_source = src;
    b_asm = asm;
    b_layout = span "target.layout" (fun () -> Target.Layout.build src asm);
    b_compiler = Chain.Cdefault_o0;
    b_spec = Chain.pipeline_spec Chain.Cdefault_o0;
    b_pass_stats = [] }

(* -- WCET analysis ----------------------------------------------------- *)

exception Refused of string

let fuel = Wcet.Fuel.default

(* The phase sequence of [Wcet.Driver.compute] under the default IPET
   engine, in its order, with its phase accounting. *)
let wcet_phases (cache : Wcet.Memo.t) (fname : string) (f : Target.Asm.func)
    (base : int) (lay : Target.Layout.t) : Wcet.Report.t * Wcet.Annotfile.entry list =
  let count = Wcet.Memo.count_phase (Some cache) in
  count Wcet.Memo.Pdecode;
  let cfg = span "wcet.cfg" (fun () -> Wcet.Cfg.build fname base f.Target.Asm.fn_code) in
  let dom, loops =
    span "wcet.loops" (fun () ->
        let dom = Wcet.Dom.compute cfg in
        (dom, Wcet.Loops.compute cfg dom))
  in
  count Wcet.Memo.Pvalue;
  let va =
    span "wcet.value" (fun () ->
        Wcet.Valueanalysis.analyze ~fuel:fuel.Wcet.Fuel.fl_widen cfg)
  in
  count Wcet.Memo.Pbounds;
  let bounds =
    match span "wcet.bounds" (fun () -> Wcet.Boundanalysis.analyze cfg dom loops va) with
    | Ok bounds -> bounds
    | Error e -> raise (Refused e.Wcet.Boundanalysis.fail_reason)
  in
  count Wcet.Memo.Pcache;
  let cls =
    span "wcet.cache" (fun () ->
        let cls = Wcet.Cacheanalysis.analyze cfg va lay in
        let must = Wcet.Mustcache.analyze ~fuel:fuel.Wcet.Fuel.fl_widen cfg va lay in
        Wcet.Cacheanalysis.refine cls (Wcet.Mustcache.block_hits must))
  in
  count Wcet.Memo.Ppipeline;
  let pl = span "wcet.pipeline" (fun () -> Wcet.Pipeline.analyze cfg cls) in
  count Wcet.Memo.Pipet;
  let res = span "wcet.path" (fun () -> Wcet.Ipet.compute ~fuel cfg pl cls loops bounds) in
  ( { Wcet.Report.rp_function = fname;
      rp_wcet = res.Wcet.Ipet.ipet_wcet;
      rp_exact_ilp = res.Wcet.Ipet.ipet_exact;
      rp_engine = Wcet.Report.Ipet;
      rp_wcet_ipet = None;
      rp_wcet_omt = None;
      rp_omt_cuts = 0;
      rp_blocks = Wcet.Cfg.num_blocks cfg;
      rp_code_bytes = Target.Asm.func_size f;
      rp_loops =
        List.map
          (fun lb ->
             { Wcet.Report.li_header = lb.Wcet.Boundanalysis.lb_header;
               li_bound = lb.Wcet.Boundanalysis.lb_bound;
               li_from_annotation =
                 lb.Wcet.Boundanalysis.lb_source = Wcet.Boundanalysis.Bannot })
          bounds;
      rp_cache_first_miss = cls.Wcet.Cacheanalysis.ca_first_miss;
      rp_cache_imprecise = cls.Wcet.Cacheanalysis.ca_imprecise;
      rp_code_lines = cls.Wcet.Cacheanalysis.ca_ilines;
      rp_data_lines = cls.Wcet.Cacheanalysis.ca_dlines },
    Wcet.Annotfile.extract_func f )

(* [Wcet.Driver.analyze ~cache] of the entry point: memo lookup, the
   phases on a miss, then the memo write. *)
let wcet (cache : Wcet.Memo.t) (b : Chain.built) : Wcet.Report.t =
  span "wcet.analyze" (fun () ->
      let asm = b.Chain.b_asm and lay = b.Chain.b_layout in
      let fname = asm.Target.Asm.pr_main in
      let f = Option.get (Target.Asm.find_func asm fname) in
      let base = Hashtbl.find lay.Target.Layout.lay_code fname in
      let key, hit =
        span "memo.lookup" (fun () ->
            let key = Wcet.Memo.key ~fuel ~spec:b.Chain.b_spec lay ~base f in
            (key, Wcet.Memo.find cache key))
      in
      match hit with
      | Some v -> { v.Wcet.Memo.cv_report with Wcet.Report.rp_function = fname }
      | None ->
        let report, annots = wcet_phases cache fname f base lay in
        span "memo.lookup" (fun () ->
            Wcet.Memo.add cache key
              { Wcet.Memo.cv_report = report; cv_annots = annots });
        report)

(* -- whole-chain validation -------------------------------------------- *)

(* [Chain.validate_chain] with its defaults (seeds 1..3, 4 control
   cycles each): the reference is the source interpreter. Returns the
   verdict and the simulated machine cycles. *)
let validate_chain (b : Chain.built) : bool * int =
  span "chain.validate" (fun () ->
      List.fold_left
        (fun (ok, cycles) seed ->
           if not ok then (ok, cycles)
           else begin
             let world () = Minic.Interp.seeded_world ~seed () in
             let ri =
               span "minic.interp" (fun () ->
                   Minic.Interp.run_cycles b.Chain.b_source (world ()) ~cycles:4)
             in
             let rr =
               span "target.sim" (fun () -> Chain.simulate ~cycles:4 b (world ()))
             in
             ( Minic.Interp.result_equal ri rr.Target.Sim.rr_result,
               cycles + rr.Target.Sim.rr_stats.Target.Sim.cycles )
           end)
        (true, 0) [ 1; 2; 3 ])
