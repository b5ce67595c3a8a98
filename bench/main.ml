(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md, per-experiment index) and adds
   Bechamel micro-benchmarks of the toolchain itself.

   Usage:
     bench/main.exe                 run everything (default workload)
     bench/main.exe -e table1       only Table 1
     bench/main.exe -e figure2      only Figure 2
     bench/main.exe -e listings     only Listings 1/2
     bench/main.exe -e annot       only the annotation-flow demo
     bench/main.exe -e ablation    only the ablations
     bench/main.exe -e overestimation   bound tightness study
     bench/main.exe -e micro       only the Bechamel micro-benchmarks
     bench/main.exe -n 120         workload size (default 60)
     bench/main.exe -j 4           per-node parallelism (default 1)
     bench/main.exe --engine omt   WCET path engine (ipet|omt|both)
     bench/main.exe --no-cache     disable the shared WCET-analysis cache
     bench/main.exe --cache-dir D  persist the cache across runs
     bench/main.exe --cache-gc-mb M  LRU-bound the persistent cache

   With -j > 1 every workload-driven experiment is measured both
   sequentially and in parallel; the wall-clock comparison goes to
   stderr so the tables on stdout stay byte-identical to a -j 1 run.

   All flags fold into one Fcstack.Toolchain.config (the cache trio and
   -j are the shared Fcstack.Cliopts terms, same surface as fcc/aitw).
   One content-addressed WCET-analysis cache (Wcet.Memo) is shared by
   all experiments and all domains of the process — and, with
   --cache-dir, across process runs; the sequential reference leg of a
   -j comparison deliberately runs uncached, so the stderr line is a
   seq-uncached vs parallel-cached wall-clock comparison.
   Hit/miss/phase accounting also goes to stderr (Report.pp_stats);
   stdout tables are byte-identical with and without the cache — cold,
   warm or --no-cache, the cache changes wall clock, never results
   (CI cmp-enforces all three). *)

let ppf = Format.std_formatter

let sep (title : string) : unit =
  Format.fprintf ppf "@.%s@.%s@.@." title (String.make (String.length title) '=')

let run_micro () : unit =
  sep "Micro-benchmarks (Bechamel): toolchain phases on one medium node";
  let node =
    Scade.Workload.generate_node ~profile:Scade.Workload.medium_node ~seed:42
      "bench"
  in
  let src = Scade.Acg.generate node in
  let vcomp_asm = Fcstack.Chain.build Fcstack.Chain.Cvcomp src in
  let tests =
    [ Bechamel.Test.make ~name:"acg"
        (Bechamel.Staged.stage (fun () -> ignore (Scade.Acg.generate node)));
      Bechamel.Test.make ~name:"compile-default-O0"
        (Bechamel.Staged.stage (fun () ->
             ignore (Cotsc.Driver.compile ~level:Cotsc.Driver.Onone src)));
      Bechamel.Test.make ~name:"compile-default-O2"
        (Bechamel.Staged.stage (fun () ->
             ignore (Cotsc.Driver.compile ~level:Cotsc.Driver.Ofull src)));
      Bechamel.Test.make ~name:"compile-vcomp"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (Vcomp.Driver.compile ~options:Vcomp.Driver.no_validation src)));
      Bechamel.Test.make ~name:"compile-vcomp-validated"
        (Bechamel.Staged.stage (fun () -> ignore (Vcomp.Driver.compile src)));
      Bechamel.Test.make ~name:"wcet-analysis"
        (Bechamel.Staged.stage (fun () ->
             ignore (Fcstack.Chain.wcet vcomp_asm)));
      Bechamel.Test.make ~name:"simulate-one-cycle"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (Fcstack.Chain.simulate vcomp_asm
                  (Minic.Interp.seeded_world ~seed:1 ())))) ]
  in
  let benchmark test =
    let open Bechamel in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
       let results = benchmark test in
       Hashtbl.iter
         (fun name ols ->
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ t ] -> Format.fprintf ppf "  %-28s %12.1f ns/run@." name t
            | Some _ | None -> Format.fprintf ppf "  %-28s (no estimate)@." name)
         results)
    tests

(* Wall-clock of one run; with -j > 1, run sequentially first and then
   in parallel, report the comparison on stderr and check the results
   agree byte-for-byte (the determinism contract of Fcstack.Par and
   the cached-equals-uncached contract of Wcet.Memo: the sequential
   reference leg runs without the cache). *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_maybe_parallel (name : string) (config : Fcstack.Toolchain.config)
    (run : config:Fcstack.Toolchain.config -> 'a) : 'a =
  let { Fcstack.Toolchain.jobs; cache; _ } = config in
  if jobs <= 1 then run ~config
  else begin
    let seq_config = { config with Fcstack.Toolchain.jobs = 1; cache = None } in
    let seq, t_seq = timed (fun () -> run ~config:seq_config) in
    let all_hits (st : Wcet.Report.analysis_stats) : int =
      st.Wcet.Report.st_hits + st.Wcet.Report.st_disk_hits
    in
    let hits0 =
      match cache with None -> 0 | Some c -> all_hits (Wcet.Memo.stats c)
    in
    let par, t_par = timed (fun () -> run ~config) in
    let cache_note =
      match cache with
      | None -> "uncached"
      | Some c ->
        let st = Wcet.Memo.stats c in
        Printf.sprintf "cached: +%d hits, %.1f%% cumulative hit rate"
          (all_hits st - hits0)
          (Wcet.Report.hit_rate st)
    in
    Printf.eprintf
      "%s: sequential uncached %.2fs, parallel (%d jobs, %s) %.2fs, \
       speedup %.2fx, results %s\n%!"
      name t_seq jobs cache_note t_par
      (if t_par > 0.0 then t_seq /. t_par else 0.0)
      (if seq = par then "identical" else "DIFFERENT (determinism bug!)");
    par
  end

(* Hidden chaos mode (--chaos): run the deterministic fault-injection
   harness (Fcstack.Chaos) instead of the experiments. Everything goes
   to stderr; exit 0 when every containment check held, 1 otherwise.
   CI drives this with a pinned seed. *)
let run_chaos (seed : int) (engine : Wcet.Report.engine) : int =
  (* the server leg needs the real daemon binary; located relative to
     this executable inside the dune build tree (absent = leg skipped,
     e.g. when the harness runs from an installed bench alone) *)
  let fcd_exe = Fcstack.Service.sibling_exe "fcd.exe" in
  let r = Fcstack.Chaos.run ~seed ~engine ?fcd_exe () in
  Format.eprintf "%a@." Fcstack.Chaos.print_report r;
  if r.Fcstack.Chaos.ch_problems = [] then 0 else 1

(* ---- scaling study (-e scale / -e scale-leg) ----------------------- *)

(* [-e scale-leg]: one leg of the study in *this* process — compile +
   analyze the -n workload under the config the flags describe, print
   the measured leg as one JSON line on stdout. The study driver
   ([-e scale]) spawns each leg as a child process so every leg starts
   from a fresh heap: RSS never shrinks under the OCaml runtime, so
   in-process legs would inherit the high-water mark of whichever leg
   ran before them and the per-leg peak-RSS numbers would be
   meaningless. *)
let run_scale_leg (label : string) (nodes : int)
    (config : Fcstack.Toolchain.config) : int =
  let leg = Fcstack.Experiments.run_scale_leg ~nodes ~config () in
  print_string (Fcstack.Experiments.scale_leg_json ~label ~config leg);
  print_newline ();
  Fcstack.Cliopts.report_stats ~always:true config;
  Fcstack.Cliopts.finalize config;
  if leg.Fcstack.Experiments.sc_failures = 0 then 0 else 1

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [-e scale]: the scaling trajectory — for each -n point, stream legs
   sequential/parallel/cold-cache/warm-cache plus (up to a size cap) a
   batch reference leg, each in a fresh child process, aggregated into
   one JSON document on stdout. The disk cache
   backing the cold/warm pair is a per-point temporary directory, so
   "cold" is truly cold and "warm" replays exactly that point. *)
let run_scale (points : int list) (jobs : int) (shard_size : int)
    (compiler : string) : int =
  let exe = Sys.executable_name in
  let failed = ref false in
  (* child spawning goes through the service's argv helper — the same
     quoting/reaping path the chaos server leg uses, not a per-call-site
     copy *)
  let leg ~(label : string) (args : string list) : string option =
    let line, status = Fcstack.Service.open_process_line (exe :: args) in
    (match status with
     | Unix.WEXITED 0 -> ()
     | _ ->
       failed := true;
       Printf.eprintf "scale: leg %s exited non-zero\n%!" label);
    if line = None then begin
      failed := true;
      Printf.eprintf "scale: leg %s produced no output\n%!" label
    end;
    line
  in
  (* the batch reference materializes the whole workload; past this
     size it stops being a reference and starts being a memory stunt *)
  let batch_cap = 25_000 in
  let jpar = if jobs > 1 then jobs else 4 in
  let legs_of_point (n : int) : string list =
    let base =
      [ "-e"; "scale-leg"; "-n"; string_of_int n; "--scale-compiler"; compiler ]
    in
    (* --shard-size implies --stream, so only streaming legs get it;
       the batch reference must run with no stream flags at all *)
    let sharded = [ "--shard-size"; string_of_int shard_size ] in
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fcstack-scale-%d-%d" (Unix.getpid ()) n)
    in
    let specs =
      [ ("stream-seq-nocache", sharded @ [ "-j"; "1"; "--no-cache" ]);
        ("stream-par-nocache",
         sharded @ [ "-j"; string_of_int jpar; "--no-cache" ]);
        ("stream-seq-cold", sharded @ [ "-j"; "1"; "--cache-dir"; dir ]);
        ("stream-seq-warm", sharded @ [ "-j"; "1"; "--cache-dir"; dir ]) ]
      @ (if n <= batch_cap then
           [ ("batch-seq-nocache", [ "-j"; "1"; "--no-cache" ]) ]
         else [])
    in
    let rows =
      List.filter_map
        (fun (label, extra) ->
           leg ~label (base @ [ "--scale-label"; label ] @ extra))
        specs
    in
    rm_rf dir;
    rows
  in
  let rows = List.concat_map legs_of_point points in
  Printf.printf
    "{\n\
    \  \"benchmark\": \"scale\",\n\
    \  \"seed\": 2026,\n\
    \  \"compiler\": %S,\n\
    \  \"shard_size\": %d,\n\
    \  \"legs\": [\n%s\n\
    \  ]\n\
     }\n"
    compiler shard_size
    (String.concat ",\n" (List.map (fun r -> "    " ^ r) rows));
  if !failed then 1 else 0

(* ---- warm-latency serve study (-e serve) ---------------------------- *)

(* [-e serve]: drive a real fcd serve loop (in a Domain, over a real
   Unix-domain socket) with the flight workload, three legs against one
   store directory:

     cold       fresh daemon, empty store — every analysis is a miss
     warm       same daemon, same requests — answered entirely from the
                in-memory Wcet.Memo (the leg asserts 0 misses)
     disk-warm  daemon restarted on the same store — answered from the
                persistent half

   Every leg's responses must be byte-identical to an in-process cold
   batch run of the same requests (serve == batch), and the stats
   deltas per leg are part of the published JSON (BENCH_serve.json).
   Wall clock varies run to run; the hit/miss columns and the
   byte-identity verdicts are the stable part. *)
let run_serve (nodes : int) (engine : Wcet.Report.engine) (jobs : int)
    (rounds : int) (deadline_ms : int option) : int =
  let open Fcstack in
  let nodes = min 12 nodes in
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fcserve-%d" (Unix.getpid ()))
  in
  rm_rf tmp;
  Unix.mkdir tmp 0o755;
  let socket = Filename.concat tmp "fcd.sock" in
  let store = Filename.concat tmp "cache" in
  let opts = Toolchain.request_opts ~engine () in
  let requests =
    List.map
      (fun (n, prog) ->
         Request.make ~name:n.Scade.Symbol.n_name
           ~action:
             (Request.Analyze
                { an_compare = false; an_simulate = false; an_annot = None })
           ~opts ?deadline_ms
           (Minic.Pp.program_to_string prog))
      (Scade.Workload.flight_program ~nodes ~seed:2026)
  in
  (* the batch reference: same requests, fresh cacheless in-process
     session — what a cold `aitw` run would print *)
  let reference =
    let s = Service.create () in
    List.map
      (fun rq -> (Service.run_request s rq).Response.rs_output)
      requests
  in
  let failed = ref false in
  let problem fmt =
    Printf.ksprintf
      (fun m ->
         failed := true;
         Printf.eprintf "serve: %s\n%!" m)
      fmt
  in
  let start_daemon () : Service.session * unit Domain.t =
    let session =
      Service.create
        ~state:
          (Toolchain.session ~jobs
             ~cache:(Wcet.Memo.create ~dir:store ())
             ())
        ()
    in
    let d =
      Domain.spawn (fun () -> Service.serve_unix ~log:false session socket)
    in
    if not (Service.wait_for_path socket) then
      problem "daemon socket %s never appeared" socket;
    (session, d)
  in
  let stop_daemon ((_, d) : Service.session * unit Domain.t) : unit =
    (match Service.Client.connect socket with
     | Ok conn -> Service.Client.shutdown conn
     | Error msg -> problem "shutdown connect failed: %s" msg);
    Domain.join d
  in
  (* one leg = the whole request list over one connection; the JSON row
     carries the latency profile and this leg's stats delta *)
  let run_leg (session : Service.session) ~(label : string)
      ~(expect_no_miss : bool) : string option =
    let before = Service.stats session in
    match Service.Client.connect socket with
    | Error msg ->
      problem "%s: %s" label msg;
      None
    | Ok conn ->
      let t_leg0 = Unix.gettimeofday () in
      let times, outputs =
        List.fold_left
          (fun (times, outputs) rq ->
             let t0 = Unix.gettimeofday () in
             let r = Service.Client.request conn rq in
             let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
             if r.Response.rs_status <> Response.Sok then
               problem "%s: request %s not ok (%s)" label rq.Request.rq_name
                 (Response.status_to_string r.Response.rs_status);
             (dt :: times, r.Response.rs_output :: outputs))
          ([], []) requests
      in
      let total_ms = (Unix.gettimeofday () -. t_leg0) *. 1000.0 in
      Service.Client.close conn;
      let outputs = List.rev outputs in
      let identical = outputs = reference in
      if not identical then
        problem "%s: responses differ from the cold batch reference" label;
      let delta f =
        match (before, Service.stats session) with
        | Some b, Some a -> f a - f b
        | _ -> 0
      in
      let misses = delta (fun st -> st.Wcet.Report.st_misses) in
      if expect_no_miss && misses <> 0 then
        problem "%s: expected a fully warm leg, saw %d misses" label misses;
      let n = List.length times in
      Some
        (Printf.sprintf
           "    { \"label\": %S, \"requests\": %d, \"total_ms\": %.2f, \
            \"mean_ms\": %.2f, \"max_ms\": %.2f, \"memory_hits\": %d, \
            \"disk_hits\": %d, \"misses\": %d, \"identical_to_batch\": %b }"
           label n total_ms
           (if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 times /. float_of_int n)
           (List.fold_left max 0.0 times)
           (delta (fun st -> st.Wcet.Report.st_hits))
           (delta (fun st -> st.Wcet.Report.st_disk_hits))
           misses identical)
  in
  let daemon = start_daemon () in
  let session = fst daemon in
  let rows =
    List.filter_map
      (fun f -> f ())
      ([ (fun () -> run_leg session ~label:"cold" ~expect_no_miss:false) ]
       @ List.init (max 1 rounds) (fun i () ->
             run_leg session
               ~label:(Printf.sprintf "warm-%d" (i + 1))
               ~expect_no_miss:true))
  in
  stop_daemon daemon;
  (* restart on the same store: the persistent half serves the repeats *)
  let daemon2 = start_daemon () in
  let rows =
    rows
    @ Option.to_list
        (run_leg (fst daemon2) ~label:"disk-warm" ~expect_no_miss:true)
  in
  stop_daemon daemon2;
  rm_rf tmp;
  Printf.printf
    "{\n\
    \  \"benchmark\": \"serve\",\n\
    \  \"seed\": 2026,\n\
    \  \"nodes\": %d,\n\
    \  \"engine\": %S,\n\
    \  \"legs\": [\n%s\n\
    \  ]\n\
     }\n"
    nodes
    (Fcstack.Request.engine_to_string engine)
    (String.concat ",\n" rows);
  if !failed then 1 else 0

(* Compiler selection for the scale legs ([--scale-compiler]); the
   default study compiles with the cheapest configuration — the study
   measures pipeline scaling, not code quality, and the analyzer
   dominates either way. *)
let scale_compilers : (string * Fcstack.Toolchain.compiler) list =
  [ ("o0", Fcstack.Chain.Cdefault_o0);
    ("o1", Fcstack.Chain.Cdefault_o1);
    ("o2", Fcstack.Chain.Cdefault_o2);
    ("vcomp", Fcstack.Chain.Cvcomp) ]

let run_bench (experiment : string) (nodes : int)
    (passes : Vcomp.Pass.options) (engine : Wcet.Report.engine) (jobs : int)
    (stream : Fcstack.Toolchain.stream_opts option) (chaos : bool)
    (chaos_seed : int) (scale_points : int list)
    (scale_compiler : Fcstack.Toolchain.compiler) (scale_label : string)
    (serve_rounds : int) (deadline_ms : int option)
    (copts : Fcstack.Cliopts.cache_opts) : int =
  if chaos then run_chaos chaos_seed engine
  else if experiment = "serve" then
    run_serve nodes engine jobs serve_rounds deadline_ms
  else if experiment = "scale" then
    let shard_size =
      match stream with
      | Some s -> s.Fcstack.Toolchain.so_shard_size
      | None -> Fcstack.Toolchain.default_stream.Fcstack.Toolchain.so_shard_size
    in
    let name =
      fst (List.find (fun (_, c) -> c = scale_compiler) scale_compilers)
    in
    run_scale scale_points jobs shard_size name
  else if experiment = "scale-leg" then begin
    let config =
      Fcstack.Cliopts.config_of_opts ~jobs ~passes ~engine
        ~compiler:scale_compiler ?stream copts
    in
    run_scale_leg scale_label nodes config
  end
  else begin
  let want (e : string) : bool = experiment = "all" || experiment = e in
  (* one shared analysis cache for the whole process: experiments and
     domains all feed it (content-addressed, so sharing across compiler
     configurations — and, when persistent, across runs — is sound) *)
  let config =
    Fcstack.Cliopts.config_of_opts ~jobs ~passes ~engine ?stream copts
  in
  let workload =
    lazy
      (let wr =
         run_maybe_parallel "workload" config (fun ~config ->
             Fcstack.Experiments.run_workload ~nodes ~config ())
       in
       (* per-node failures: stderr-only summary, tables show survivors *)
       Fcstack.Diag.print_summary ~total:nodes
         wr.Fcstack.Experiments.wr_diags;
       (* per-pass middle-end accounting: stderr-only, like the cache
          stats below — stdout tables stay byte-identical across -O *)
       Format.eprintf "%a@?" Vcomp.Pass.pp_stats
         wr.Fcstack.Experiments.wr_pass_stats;
       wr)
  in
  if experiment = "gvnlicm" then begin
    (* pure JSON on stdout (no separator banner): the published
       BENCH_gvn_licm.json is exactly this output *)
    Fcstack.Experiments.print_gvn_licm_json ppf ~nodes:(min 30 nodes) ~config
      ();
    Format.pp_print_flush ppf ();
    Fcstack.Cliopts.report_stats ~always:true config;
    Fcstack.Cliopts.finalize config;
    0
  end
  else if experiment = "engines" then begin
    (* pure JSON on stdout: the published BENCH_engines.json. Runs
       under --engine both regardless of the flag, so the driver
       cross-checks omt <= ipet on every analysis. *)
    Fcstack.Experiments.print_engines_json ppf ~nodes:(min 30 nodes) ~config
      ();
    Format.pp_print_flush ppf ();
    Fcstack.Cliopts.report_stats ~always:true config;
    Fcstack.Cliopts.finalize config;
    0
  end
  else begin
  if want "listings" then begin
    sep "Experiment listing-1-2";
    Fcstack.Experiments.print_listings ppf
  end;
  if want "table1" then begin
    sep "Experiment table-1";
    Fcstack.Experiments.print_table1 ppf (Lazy.force workload);
    Format.fprintf ppf "@."
  end;
  if want "figure2" then begin
    sep "Experiment figure-2";
    Fcstack.Experiments.print_figure2 ppf (Lazy.force workload);
    Format.fprintf ppf "@."
  end;
  if want "annot" then begin
    sep "Experiment annot-flow";
    Fcstack.Experiments.print_annot_demo ppf;
    Format.fprintf ppf "@."
  end;
  if want "ablation" then begin
    sep "Experiment ablation";
    Fcstack.Experiments.print_ablation ppf ~nodes:(min 30 nodes) ~config ();
    Format.fprintf ppf "@."
  end;
  if want "overestimation" then begin
    sep "Experiment overestimation";
    Fcstack.Experiments.print_overestimation ppf ~nodes:(min 20 nodes) ~config
      ();
    Format.fprintf ppf "@."
  end;
  if want "micro" then run_micro ();
  Format.pp_print_flush ppf ();
  (* cache accounting to stderr only: stdout tables stay byte-identical
     with and without the cache (CI cmp-enforces this) *)
  Fcstack.Cliopts.report_stats ~always:true config;
  Fcstack.Cliopts.finalize config;
  0
  end
  end

open Cmdliner

let experiment_arg =
  Arg.(value & opt string "all"
       & info [ "e"; "experiment" ] ~docv:"EXPERIMENT"
           ~doc:"Run only $(docv): listings, table1, figure2, annot, \
                 ablation, overestimation, micro, gvnlicm (pure-JSON \
                 GVN/LICM deltas; never part of $(b,all)), engines \
                 (pure-JSON IPET-vs-OMT differential study; never part \
                 of $(b,all)), scale (pure-JSON scaling study: wall \
                 clock, peak RSS, throughput and cache hit rate per \
                 $(b,--scale-points) workload size, each leg in a fresh \
                 child process; never part of $(b,all)), scale-leg \
                 (one scale leg in-process), or serve (pure-JSON \
                 warm-latency study of the fcd serve loop: cold, warm \
                 and restarted-daemon legs against one store, \
                 byte-checked against the batch pipeline; never part \
                 of $(b,all)) (default: all).")

let nodes_arg =
  Arg.(value & opt int 60
       & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Workload size (default 60).")

let jobs_arg =
  Fcstack.Cliopts.jobs_term
    ~doc:"Per-node parallelism; with $(docv) > 1 every workload-driven \
          experiment is also timed sequentially and the comparison goes \
          to stderr (stdout tables stay byte-identical)."

(* maintenance flags, hidden from the man page *)
let chaos_arg =
  Arg.(value & flag
       & info [ "chaos" ] ~docs:Manpage.s_none
           ~doc:"Run the deterministic fault-injection harness instead \
                 of the experiments (report on stderr; exit 1 on any \
                 containment violation).")

let chaos_seed_arg =
  Arg.(value & opt int 20260806
       & info [ "chaos-seed" ] ~docv:"SEED" ~docs:Manpage.s_none
           ~doc:"Seed for --chaos fault selection.")

let scale_points_arg =
  Arg.(value & opt (list int) [ 2500; 25000; 250000 ]
       & info [ "scale-points" ] ~docv:"N,..." ~docs:Manpage.s_none
           ~doc:"Workload sizes the -e scale study sweeps.")

let scale_compiler_arg =
  Arg.(value & opt (enum scale_compilers) Fcstack.Chain.Cdefault_o0
       & info [ "scale-compiler" ] ~docv:"CC" ~docs:Manpage.s_none
           ~doc:"Compiler configuration for the scale legs \
                 (o0|o1|o2|vcomp, default o0).")

let serve_rounds_arg =
  Arg.(value & opt int 1
       & info [ "serve-rounds" ] ~docv:"K" ~docs:Manpage.s_none
           ~doc:"Warm rounds the -e serve study repeats (default 1).")

let scale_label_arg =
  Arg.(value & opt string ""
       & info [ "scale-label" ] ~docv:"LABEL" ~docs:Manpage.s_none
           ~doc:"Leg label embedded in -e scale-leg JSON output.")

let cmd =
  let doc = "regenerate the paper's evaluation tables and figures" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const run_bench $ experiment_arg $ nodes_arg
      $ Fcstack.Cliopts.passes_term $ Fcstack.Cliopts.engine_term $ jobs_arg
      $ Fcstack.Cliopts.stream_term $ chaos_arg $ chaos_seed_arg
      $ scale_points_arg $ scale_compiler_arg $ scale_label_arg
      $ serve_rounds_arg $ Fcstack.Cliopts.deadline_ms_term
      $ Fcstack.Cliopts.cache_term)

let () = exit (Cmd.eval' cmd)
