(* The batch workloads, flight-vcomp and flight-o0: a seeded flight
   program run through [Experiments.map_workload] in streaming shape,
   with a fresh in-memory WCET cache per batch run (as every bench
   process has). A run makes batch runs of [nodes] nodes until its
   time is up, batch [r] on its own program (seed [round_seed p r]),
   and reports medians over the batches: the median damps machine
   noise, the many distinct nodes damp differences between seeds. *)

open Fcstack

let now = Stats.now
let ms_since t0 = (now () -. t0) *. 1000.0

let stream = { Toolchain.so_shard_size = 8; so_lookahead = Par.default_lookahead }

let config (p : Bench.params) (compiler : Chain.compiler) : Toolchain.config =
  Toolchain.of_session_request
    (Toolchain.session ~jobs:p.jobs ~cache:(Wcet.Memo.create ()) ~stream ())
    (Toolchain.request_opts ~compiler ())

type batch = {
  wall : float;
  outs : ((int * int, string) result * float) list;
      (* per node, in node order: (WCET bound, code size) and node ms *)
}

(* -- the real path (untraced) ------------------------------------------ *)

(* flight-vcomp: [Par.chain_node] with per-pass validators; its
   whole-chain verdict must pass. flight-o0: compile plus WCET. *)
let real_node (config : Toolchain.config) ((node : Scade.Symbol.node), src) =
  let t0 = now () in
  let name = node.Scade.Symbol.n_name in
  let diag r = Result.map_error Diag.to_string r in
  let r =
    match config.Toolchain.compiler with
    | Chain.Cvcomp ->
      Result.bind (diag (Par.chain_node ~config ~validate:true name src))
        (fun (n : Par.node_result) ->
           match n.pn_validation with
           | Error msg -> Error (name ^ ": whole-chain validation failed: " ^ msg)
           | Ok () -> Ok (n.pn_wcet, Target.Asm.program_size n.pn_asm))
    | compiler ->
      Result.bind
        (diag (Diag.capture ~node:name ~stage:Diag.Compile (fun () ->
             Chain.build compiler src)))
        (fun b ->
           Result.map
             (fun (rep : Wcet.Report.t) ->
                (rep.rp_wcet, Target.Asm.program_size b.Chain.b_asm))
             (diag (Diag.capture ~node:name ~stage:Diag.Wcet (fun () ->
                  Chain.wcet ~config b))))
  in
  (r, ms_since t0)

let round_seed (p : Bench.params) (round : int) : int = Hashtbl.hash (p.seed, round)

let real_batch (p : Bench.params) (compiler : Chain.compiler) (round : int) : batch =
  let config = config p compiler in
  let t0 = now () in
  let outs =
    Experiments.map_workload ~config ~nodes:p.nodes ~seed:(round_seed p round)
      (real_node config)
  in
  { wall = now () -. t0; outs }

(* -- the traced run ---------------------------------------------------- *)

type traced_batch = {
  t_wall : float;
  t_wcet : int;                          (* summed WCET bounds *)
  t_sim_cycles : int;
  t_stats : Wcet.Report.analysis_stats;  (* the batch's memo *)
  t_pass_stats : Vcomp.Pass.pass_stats list;
  t_problems : string list;              (* failed decomposition checks *)
}

(* The traced node: the real path of [real_node], layer by layer.
   Returns assembly, report, whole-chain verdict and simulated cycles. *)
let traced_node (cache : Wcet.Memo.t) (compiler : Chain.compiler) (src : Minic.Ast.program) =
  let b =
    match compiler with
    | Chain.Cvcomp ->
      (* [Par.chain_node] typechecks before [Chain.build] does *)
      ignore (Trace.span "minic.typecheck" (fun () -> Minic.Typecheck.check_program src));
      Layers.vcomp_build ~validate:true src
    | _ -> Layers.o0_build src
  in
  let report = Layers.wcet cache b in
  let valid, cycles =
    if compiler = Chain.Cvcomp then Layers.validate_chain b else (true, 0)
  in
  (b.Chain.b_asm, report, valid, cycles)

(* The real path's outputs for one node, to check the decomposition
   against: [Chain.build] then [Wcet.Driver.analyze] without a cache (a
   hit returns what a miss computes). *)
let reference (compiler : Chain.compiler) (src : Minic.Ast.program) =
  let b = Chain.build ~validate:true compiler src in
  ( Target.Emit.program_to_string b.Chain.b_asm,
    Wcet.Driver.analyze ~spec:b.Chain.b_spec b.Chain.b_asm b.Chain.b_layout,
    b.Chain.b_pass_stats )

(* Batch [round] layer by layer, in [map_workload]'s streaming shape
   over [Par.run_stream] with generation traced in the producer; then,
   untimed, every node is checked against the real path: assembly
   byte-equal to [Chain.build], report equal to [Wcet.Driver.analyze],
   whole-chain verdict passing. *)
let traced_batch (p : Bench.params) (compiler : Chain.compiler) (round : int) : traced_batch =
  let cache = Wcet.Memo.create () in
  let plan =
    Scade.Workload.shard_plan ~shard_size:stream.so_shard_size ~nodes:p.nodes
      ~seed:(round_seed p round) ()
  in
  let producer k =
    if k >= Scade.Workload.shard_count plan then None
    else
      let lo, hi = Scade.Workload.shard_bounds plan k in
      Some
        (Array.init (hi - lo) (fun j ->
             let node, src =
               Trace.span "scade.acg" (fun () ->
                   let node = Scade.Workload.node_at ~seed:plan.sp_seed (lo + j) in
                   (node, Scade.Acg.generate node))
             in
             fun () ->
               Trace.request "node" ((round * p.nodes) + lo + j) (fun () ->
                   ( node.Scade.Symbol.n_name, src,
                     try Ok (traced_node cache compiler src)
                     with e -> Error (Printexc.to_string e) ))))
  in
  let t0 = now () in
  let outs =
    Par.run_stream ~jobs:p.jobs ~lookahead:stream.so_lookahead ~producer
      ~consumer:(fun acc _ v -> v :: acc) ~init:[] ()
    |> List.rev
  in
  let wall = now () -. t0 in
  let refs = Par.map_list ~jobs:p.jobs (fun (_, src, _) -> reference compiler src) outs in
  let problems =
    List.concat
      (List.map2
         (fun (name, _, out) (asm_ref, report_ref, _) ->
            match out with
            | Error e -> [ name ^ ": traced run failed: " ^ e ]
            | Ok (asm, report, valid, _) ->
              (if String.equal (Target.Emit.program_to_string asm) asm_ref then []
               else [ name ^ ": layer-by-layer assembly differs from Chain.build" ])
              @ (if report = report_ref then []
                 else [ name ^ ": layer-by-layer report differs from Wcet.Driver.analyze" ])
              @ if valid then [] else [ name ^ ": whole-chain validation failed" ])
         outs refs)
  in
  let sum f =
    List.fold_left
      (fun acc (_, _, out) -> match out with Ok o -> acc + f o | Error _ -> acc)
      0 outs
  in
  { t_wall = wall;
    t_wcet = sum (fun (_, r, _, _) -> r.Wcet.Report.rp_wcet);
    t_sim_cycles = sum (fun (_, _, _, c) -> c);
    t_stats = Wcet.Memo.stats cache;
    t_pass_stats = Vcomp.Pass.aggregate (List.map (fun (_, _, s) -> s) refs);
    t_problems = problems }

(* -- the workload ------------------------------------------------------ *)

let sum_out f (b : batch) =
  List.fold_left (fun acc (r, _) -> match r with Ok o -> acc + f o | Error _ -> acc) 0 b.outs

(* Batches whose nodes make up the code-quality totals: always the
   same nodes, whatever the number of batches a run completes. *)
let quality_batches = 4

let run (p : Bench.params) (compiler : Chain.compiler) : Bench.outcome =
  (* set-up: generating the quality batches' programs *)
  let setup_s =
    Stats.median
      (List.init 5 (fun _ ->
           let t0 = now () in
           for r = 0 to quality_batches - 1 do
             ignore (Scade.Workload.flight_program ~nodes:p.nodes ~seed:(round_seed p r))
           done;
           now () -. t0))
  in
  (* peak RSS once the quality batches are done: always the same work *)
  let peak_rss_mb = ref 0.0 in
  let batch r =
    let b = real_batch p compiler r in
    if r = quality_batches - 1 then peak_rss_mb := Stats.proc_status_mb "VmHWM";
    b
  in
  let measured = if p.trace then p.seconds /. 2.0 else p.seconds in
  let batches = Bench.repeat_for measured batch in
  let walls = List.map (fun b -> b.wall) batches in
  let node_ms = List.concat_map (fun b -> List.map snd b.outs) batches in
  (* untimed: complete the quality batches when the run made fewer *)
  let all =
    batches
    @ List.init
      (max 0 (quality_batches - List.length batches))
      (fun j -> batch (List.length batches + j))
  in
  let quality_sum f =
    List.fold_left (fun acc b -> acc + sum_out f b) 0 (Bench.take quality_batches all)
  in
  let errors =
    List.concat_map
      (fun b -> List.filter_map (fun (r, _) -> Result.fold ~ok:(fun _ -> None) ~error:Option.some r) b.outs)
      all
  in
  let tail_p = Stats.tail_percentile (List.length node_ms) in
  let e2e =
    [ ("setup_s", setup_s);
      ("nodes_per_s", Stats.median (List.map (fun w -> float p.nodes /. w) walls));
      ("requests_per_s", Stats.median (List.map (fun w -> 1.0 /. w) walls));
      ("latency_p50_ms", Stats.percentile node_ms 50.0);
      ("latency_tail_ms", Stats.percentile node_ms tail_p);
      ("peak_rss_mb", !peak_rss_mb);
      ("wcet_total_cycles", float (quality_sum fst));
      ("code_size_instrs", float (quality_sum snd)) ]
  in
  let notes =
    [ ("batches", string_of_int (List.length batches));
      ("quality_nodes", string_of_int (quality_batches * p.nodes));
      ("latency_tail_percentile", Printf.sprintf "%g" tail_p);
      ("latency_samples", string_of_int (List.length node_ms)) ]
  in
  let attempted = p.nodes * List.length all in
  if not p.trace then
    { Bench.attempted; failed = List.length errors; problems = errors; e2e; layers = []; notes }
  else begin
    Trace.reset ();
    let traced = Bench.repeat_for measured (traced_batch p compiler) in
    let spans = Trace.collect () in
    let wcet_problems =
      List.concat
        (List.mapi
           (fun r (t : traced_batch) ->
              match List.nth_opt batches r with
              | Some b when sum_out fst b <> t.t_wcet ->
                [ Printf.sprintf "batch %d: WCET total differs between the traced and untraced runs" r ]
              | _ -> [])
           traced)
    in
    let traced_nodes = p.nodes * List.length traced in
    let per_node n = float n /. float traced_nodes in
    let pass_count f =
      per_node
        (List.fold_left
           (fun acc t -> List.fold_left (fun acc st -> acc + f st) acc t.t_pass_stats)
           0 traced)
    in
    let memo =
      List.fold_left (fun acc t -> Bench.combine_stats ( + ) acc t.t_stats) Bench.zero_stats traced
    in
    let layers =
      Bench.span_layers spans ~root:"node"
      @ Bench.memo_layers ~per:traced_nodes memo
      @ [ ("vcomp.rewrites", pass_count (fun st -> st.Vcomp.Pass.st_rewrites));
          ("vcomp.removed", pass_count (fun st -> st.Vcomp.Pass.st_removed));
          ("vcomp.hoisted", pass_count (fun st -> st.Vcomp.Pass.st_hoisted));
          ("target.sim_cycles",
           per_node (List.fold_left (fun acc t -> acc + t.t_sim_cycles) 0 traced));
          ( "par.busy_ratio",
            List.fold_left ( +. ) 0.0 node_ms
            /. (1000.0 *. List.fold_left ( +. ) 0.0 walls *. float p.jobs) );
          ( "trace.overhead_ratio",
            (Stats.median (List.map (fun t -> t.t_wall) traced) /. Stats.median walls) -. 1.0 ) ]
    in
    Trace.write_chrome
      (Filename.concat p.dir (Printf.sprintf "trace-%s-%d.json" p.workload p.seed))
      spans;
    let share_of names =
      Printf.sprintf "%.4f"
        (List.fold_left (fun acc l -> acc +. List.assoc (l ^ "_share") layers) 0.0 names)
    in
    let problems = errors @ List.concat_map (fun t -> t.t_problems) traced @ wcet_problems in
    { Bench.attempted = attempted + traced_nodes;
      failed = List.length problems;
      problems;
      e2e;
      layers;
      notes =
        notes
        @ [ ("traced_batches", string_of_int (List.length traced));
            (* the workload's purpose, from the shares: vcomp stages
               dominate flight-vcomp, the analyzer flight-o0 *)
            ("vcomp_stages_share", share_of [ "vcomp.selection"; "vcomp.constprop";
                                              "vcomp.cse"; "vcomp.gvn"; "vcomp.licm";
                                              "vcomp.deadcode"; "vcomp.asmgen" ]);
            ("wcet_share", share_of [ "wcet.cfg"; "wcet.loops"; "wcet.value"; "wcet.bounds";
                                      "wcet.cache"; "wcet.pipeline"; "wcet.path" ]) ] }
  end
