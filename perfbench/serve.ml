(* The serve-repeat workload: a real fcd child process with a
   persistent store, driven by [jobs] closed-loop clients with zero
   think time. Each client opens one connection per request, as
   [aitw --connect] does, and sends an [Analyze] request under vcomp.
   Request [i] of the seeded sequence names either one of the [hot]
   hot-set sources (primed during set-up, so the memo's memory tier
   answers its WCET analysis) or, with probability [fresh_share], a
   never-seen source (a memo miss and a store write). *)

open Fcstack

let now = Stats.now
let ms_since t0 = (now () -. t0) *. 1000.0

let action = Request.Analyze { an_compare = false; an_simulate = false; an_annot = None }
let opts = Toolchain.request_opts ~compiler:Toolchain.Cvcomp ()

(* Source [k] of the seed's flight program, as mini-C text. *)
let source (p : Bench.params) (k : int) : Request.t =
  let node = Scade.Workload.node_at ~seed:p.seed k in
  Request.make ~name:node.Scade.Symbol.n_name ~action ~opts
    (Minic.Pp.program_to_string (Scade.Acg.generate node))

(* The source request [i] of the sequence sends: a hot-set index, or
   [hot + i], a source no other request uses. *)
let pick (p : Bench.params) (i : int) : int =
  let st = Random.State.make [| p.seed; i; 0x5E4E |] in
  if Random.State.float st 1.0 < p.fresh_share then p.hot + i
  else Random.State.int st p.hot

(* -- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; socket : string; store : string; log : string }

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type sample = {
  s_index : int;
  s_source : int;
  s_resp : Response.t;
  s_ms : float;  (* connect + round trip, as the client sees it *)
}

(* One request on its own connection. *)
let call ?(traced = false) (socket : string) (rq : Request.t) : Response.t =
  let span name f = if traced then Trace.span name f else f () in
  match span "serve.connect" (fun () -> Service.Client.connect socket) with
  | Error msg -> Response.transport ~node:rq.Request.rq_name msg
  | Ok conn ->
    let r = span "serve.roundtrip" (fun () -> Service.Client.request ~timeout_s:60.0 conn rq) in
    Service.Client.close conn;
    r

let stop (d : daemon) : unit =
  (match Service.Client.connect d.socket with
   | Ok conn -> Service.Client.shutdown conn
   | Error _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid)

let start (p : Bench.params) (k : int) : daemon =
  let exe =
    match Service.sibling_exe "fcd.exe" with
    | Some exe -> exe
    | None -> failwith "fcd.exe not found next to the benchmark executable"
  in
  let base = Filename.concat p.dir (Printf.sprintf "fcd%d" k) in
  rm_rf base;
  Unix.mkdir base 0o755;
  let d =
    { pid = 0; socket = Filename.concat base "sock";
      store = Filename.concat base "store"; log = Filename.concat base "fcd.err" }
  in
  let err = Unix.openfile d.log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close err) (fun () ->
        Service.spawn ~stderr_to:err
          (Service.daemon_argv ~exe ~socket:d.socket ~cache_dir:d.store ~jobs:p.jobs ()))
  in
  let d = { d with pid } in
  let ping () =
    (call d.socket (Request.make ~name:"ping" ~action:Request.Ping "")).Response.rs_status
    = Response.Sok
  in
  let deadline = now () +. 30.0 in
  let rec wait () =
    if Service.wait_for_path ~timeout_s:0.05 d.socket && ping () then ()
    else if now () > deadline then (stop d; failwith "fcd did not become ready")
    else wait ()
  in
  wait ();
  d

(* Priming: every hot-set source once through the daemon, so its memo
   answers them from memory. *)
let prime (d : daemon) (hot : Request.t array) : unit =
  Array.iter
    (fun rq ->
       if (call d.socket rq).Response.rs_status <> Response.Sok then
         failwith ("priming request refused: " ^ rq.Request.rq_name))
    hot

(* -- load -------------------------------------------------------------- *)

(* [jobs] closed-loop clients from sequence index [first] until
   [seconds] have passed; the samples in sequence order and the wall
   time until the last client finished. *)
let load ?(traced = false) (p : Bench.params) (d : daemon) (hot : Request.t array)
    ~(first : int) ~(seconds : float) : sample list * float =
  let next = Atomic.make first in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let client () =
    let rec loop acc =
      if now () >= deadline then acc
      else begin
        let i = Atomic.fetch_and_add next 1 in
        let k = pick p i in
        let rq =
          if k < p.hot then hot.(k)
          else if traced then Trace.span "scade.acg" (fun () -> source p k)
          else source p k
        in
        let t = now () in
        let resp =
          if traced then Trace.request "request" i (fun () -> call ~traced d.socket rq)
          else call d.socket rq
        in
        loop ({ s_index = i; s_source = k; s_resp = resp; s_ms = ms_since t } :: acc)
      end
    in
    loop []
  in
  let clients = List.init p.jobs (fun _ -> Domain.spawn client) in
  let samples = List.concat_map Domain.join clients in
  (List.sort (fun a b -> compare a.s_index b.s_index) samples, now () -. t0)

(* Answered requests per second over the whole load. *)
let throughput (samples : sample list) ~(wall : float) : float =
  float (List.length (List.filter (fun s -> s.s_resp.Response.rs_status = Response.Sok) samples))
  /. wall

(* -- checks and accounting --------------------------------------------- *)

(* Every answer must be byte-equal to an in-process cold
   [Service.run_request] of the same request. *)
let check_outputs (p : Bench.params) (hot : Request.t array) (samples : sample list) :
  string list =
  let distinct = List.sort_uniq compare (List.map (fun s -> s.s_source) samples) in
  let request k = if k < p.hot then hot.(k) else source p k in
  let refs = Hashtbl.create 64 in
  List.iter2
    (fun k out -> Hashtbl.replace refs k out)
    distinct
    (Par.map_list ~jobs:p.jobs
       (fun k -> (Service.run_request (Service.create ()) (request k)).Response.rs_output)
       distinct);
  List.filter_map
    (fun s ->
       let name = (request s.s_source).Request.rq_name in
       if s.s_resp.Response.rs_status <> Response.Sok then
         Some
           (Printf.sprintf "request %d (%s): %s" s.s_index name
              (String.concat "; "
                 (Response.status_to_string s.s_resp.Response.rs_status
                  :: List.map Diag.to_string s.s_resp.Response.rs_diags)))
       else if not (String.equal s.s_resp.Response.rs_output (Hashtbl.find refs s.s_source))
       then Some (Printf.sprintf "request %d (%s): answer differs from in-process run" s.s_index name)
       else None)
    samples

(* The daemon's per-request memo accounting lines ("fcd: req N analyze
   NAME ok | H memory hits, D disk hits, M misses"), in service order. *)
let memo_log (d : daemon) : (int * int * int) list =
  let ic = open_in d.log in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line ->
      (match
         Scanf.sscanf line "fcd: req %_d analyze %_s %_s | %d memory hits, %d disk hits, %d misses"
           (fun h dh m -> (h, dh, m))
       with
       | v -> read (v :: acc)
       | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> read acc)
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read [])

let store_entries (dir : string) : int =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | shards ->
    Array.fold_left
      (fun acc s ->
         let path = Filename.concat dir s in
         if String.length s = 2 && Sys.is_directory path then
           acc + Array.length (Sys.readdir path)
         else acc)
      0 shards

(* Code quality of the hot set under vcomp: summed WCET bound and
   code size, and the middle end's work counts per source. *)
let quality (p : Bench.params) (sources : int list) : (int * (int * int * Vcomp.Pass.pass_stats list)) list =
  List.combine sources
    (Par.map_list ~jobs:p.jobs
       (fun k ->
          let src = Scade.Acg.generate (Scade.Workload.node_at ~seed:p.seed k) in
          let b = Chain.build Chain.Cvcomp src in
          ((Chain.wcet b).Wcet.Report.rp_wcet, Target.Asm.program_size b.Chain.b_asm,
           b.Chain.b_pass_stats))
       sources)

(* -- the traced replay ---------------------------------------------------- *)

(* [Service.run_request]'s analyze path, layer by layer: parse,
   typecheck, the vcomp build, the WCET analysis through the memo, and
   the report text. *)
let layered_analyze (memo : Wcet.Memo.t) (rq : Request.t) : string =
  let src = Trace.span "minic.parse" (fun () -> Minic.Parser.parse_program rq.Request.rq_source) in
  ignore (Trace.span "minic.typecheck" (fun () -> Minic.Typecheck.check_program src));
  let b = Layers.vcomp_build ~validate:false src in
  let report = Layers.wcet memo b in
  Printf.sprintf "--- %s ---\n%s\n"
    (Chain.compiler_description Chain.Cvcomp)
    (Wcet.Report.to_string report)

(* -- the workload ------------------------------------------------------ *)

let run (p : Bench.params) : Bench.outcome =
  let live = ref None in
  Fun.protect
    ~finally:(fun () ->
        Option.iter stop !live;
        List.iter (fun k -> rm_rf (Filename.concat p.dir k)) [ "fcd0"; "fcd1"; "fcd2"; "replay" ])
  @@ fun () ->
  (* set-up: generating the hot set and spawning the daemon until it
     answers, three times (the median is kept, with the last daemon),
     then priming the hot set through that daemon once *)
  let spawns =
    List.init 3 (fun k ->
        let t0 = now () in
        let hot = Array.init p.hot (source p) in
        let d = start p k in
        let s = now () -. t0 in
        if k < 2 then stop d else live := Some d;
        (d, hot, s))
  in
  let d, hot, _ = List.nth spawns 2 in
  let t0 = now () in
  prime d hot;
  let setup_s = Stats.median (List.map (fun (_, _, s) -> s) spawns) +. (now () -. t0) in
  let measured = if p.trace then p.seconds /. 2.0 else p.seconds in
  let samples, wall = load p d hot ~first:0 ~seconds:measured in
  let n = List.length samples in
  let rate = throughput samples ~wall in
  let peak_rss_mb = Stats.proc_status_mb ~pid:(string_of_int d.pid) "VmHWM" in
  let lat = List.map (fun s -> s.s_ms) samples in
  let tail_p = Stats.tail_percentile n in
  let hot_quality = quality p (List.init p.hot Fun.id) in
  let sum f = float (List.fold_left (fun acc (_, q) -> acc + f q) 0 hot_quality) in
  let e2e =
    [ ("setup_s", setup_s);
      ("nodes_per_s", rate);
      ("requests_per_s", rate);
      ("latency_p50_ms", Stats.percentile lat 50.0);
      ("latency_tail_ms", Stats.percentile lat tail_p);
      ("peak_rss_mb", peak_rss_mb);
      ("wcet_total_cycles", sum (fun (w, _, _) -> w));
      ("code_size_instrs", sum (fun (_, s, _) -> s)) ]
  in
  let fresh = List.length (List.filter (fun s -> s.s_source >= p.hot) samples) in
  let notes =
    [ ("requests", string_of_int n); ("fresh_requests", string_of_int fresh);
      ("latency_tail_percentile", Printf.sprintf "%g" tail_p);
      ("latency_samples", string_of_int n) ]
  in
  if not p.trace then begin
    let problems = check_outputs p hot samples in
    { Bench.attempted = n; failed = List.length problems; problems; e2e; layers = []; notes }
  end
  else begin
    (* the in-process replay sessions mirror the daemon: a persistent
       store, primed with the hot set *)
    let replay_dir = Filename.concat p.dir "replay" in
    rm_rf replay_dir;
    Unix.mkdir replay_dir 0o755;
    let session =
      Service.create
        ~state:(Toolchain.session ~cache:(Wcet.Memo.create ~dir:(Filename.concat replay_dir "a") ()) ())
        ()
    in
    let memo = Wcet.Memo.create ~dir:(Filename.concat replay_dir "b") () in
    Array.iter
      (fun rq ->
         ignore (Service.run_request session rq);
         ignore (layered_analyze memo rq))
      hot;
    let memo_before = Wcet.Memo.stats memo in
    let entries_before = store_entries d.store in
    Trace.reset ();
    let traced, traced_wall = load ~traced:true p d hot ~first:n ~seconds:measured in
    let writes = store_entries d.store - entries_before in
    let nt = List.length traced in
    let request k = if k < p.hot then hot.(k) else source p k in
    (* replay the traced sequence in service order, through the real
       entry point and layer by layer; the two must agree *)
    let replay_problems =
      List.filter_map
        (fun s ->
           let rq = request s.s_source in
           let real =
             Trace.request "replay" s.s_index (fun () ->
                 Trace.span "service.run_request" (fun () -> Service.run_request session rq))
           in
           let layered = Trace.request "layers" s.s_index (fun () -> layered_analyze memo rq) in
           if String.equal real.Response.rs_output layered then None
           else Some (Printf.sprintf "request %d: layer-by-layer answer differs from Service.run_request" s.s_index))
        traced
    in
    let spans = Trace.collect () in
    let per_request v = if nt = 0 then 0.0 else v /. float nt in
    let derived =
      [ ("serve.queue_wire",
         Trace.total_ms spans "serve.roundtrip" -. Trace.total_ms spans "service.run_request") ]
    in
    (* the daemon's own memo accounting for the traced requests (its
       log lists priming, then the untraced, then the traced phase);
       phase runs from the layer-by-layer replay *)
    let daemon_memo =
      List.fold_left
        (fun (st : Wcet.Report.analysis_stats) (h, dh, m) ->
           { st with st_hits = st.st_hits + h; st_disk_hits = st.st_disk_hits + dh;
                     st_misses = st.st_misses + m })
        { Bench.zero_stats with st_writes = writes }
        (List.filteri (fun j _ -> j >= p.hot + n) (memo_log d))
    in
    let memo_counts =
      List.filter
        (fun (k, _) -> String.starts_with ~prefix:"memo." k)
        (Bench.memo_layers ~per:nt daemon_memo)
      @ List.filter
        (fun (k, _) -> String.starts_with ~prefix:"wcet." k)
        (Bench.memo_layers ~per:nt (Bench.combine_stats ( - ) (Wcet.Memo.stats memo) memo_before))
    in
    let source_stats = quality p (List.sort_uniq compare (List.map (fun s -> s.s_source) traced)) in
    let pass_count f =
      per_request
        (float
           (List.fold_left
              (fun acc s ->
                 let _, _, stats = List.assoc s.s_source source_stats in
                 List.fold_left (fun acc st -> acc + f st) acc stats)
              0 traced))
    in
    let layers =
      Bench.span_layers ~derived spans ~root:"request"
      @ memo_counts
      @ [ ("vcomp.rewrites", pass_count (fun st -> st.Vcomp.Pass.st_rewrites));
          ("vcomp.removed", pass_count (fun st -> st.Vcomp.Pass.st_removed));
          ("vcomp.hoisted", pass_count (fun st -> st.Vcomp.Pass.st_hoisted));
          ("par.busy_ratio", Trace.total_ms spans "service.run_request" /. (1000.0 *. traced_wall));
          ("trace.overhead_ratio",
           rate /. throughput traced ~wall:traced_wall -. 1.0) ]
    in
    Trace.write_chrome
      (Filename.concat p.dir (Printf.sprintf "trace-%s-%d.json" p.workload p.seed))
      spans;
    let problems = check_outputs p hot (samples @ traced) @ replay_problems in
    { Bench.attempted = n + nt;
      failed = List.length problems;
      problems;
      e2e;
      layers;
      notes = notes @ [ ("traced_requests", string_of_int nt) ] }
  end
