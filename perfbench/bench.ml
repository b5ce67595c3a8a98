(* What every workload shares: the run parameters, the outcome record
   a workload returns, and the canonical metric lists (the names
   BENCHMARK.json declares). *)

type params = {
  workload : string;
  seed : int;
  seconds : float;     (* measured time of one run *)
  trace : bool;        (* also make the traced run, report per-layer *)
  nodes : int;         (* flight workloads: nodes per batch run; not a
                          multiple of 10, so the latency median does not
                          fall in the gap between the io/small half of
                          the node mix and the medium nodes *)
  hot : int;           (* serve-repeat: hot-set size *)
  fresh_share : float; (* serve-repeat: share of never-seen sources *)
  jobs : int;          (* domains (flight) / clients (serve) *)
  nproc : int;
  dir : string;        (* run directory: spans, socket, stores *)
}

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;          (* failed output checks *)
  e2e : (string * float) list;     (* end-to-end metrics by name *)
  layers : (string * float) list;  (* per-layer metrics; absent = 0 *)
  notes : (string * string) list;  (* recorded facts, as JSON values *)
}

let e2e_metrics : (string * string) list =
  [ ("setup_s", "s"); ("nodes_per_s", "1/s"); ("requests_per_s", "1/s");
    ("latency_p50_ms", "ms"); ("latency_tail_ms", "ms");
    ("peak_rss_mb", "MB"); ("wcet_total_cycles", "cycles");
    ("code_size_instrs", "instrs") ]

(* Layers timed by spans: each yields [<layer>_ms], the summed busy
   time, and [<layer>_share], that time over node (flight) or request
   (serve) time. *)
let layer_times : string list =
  [ "scade.acg"; "minic.parse"; "minic.typecheck"; "vcomp.selection";
    "vcomp.constprop"; "vcomp.cse"; "vcomp.gvn"; "vcomp.licm";
    "vcomp.deadcode"; "vcomp.snapshot"; "vcomp.validate"; "vcomp.asmgen";
    "cotsc.compile"; "target.layout"; "memo.lookup"; "wcet.cfg"; "wcet.loops";
    "wcet.value"; "wcet.bounds"; "wcet.cache"; "wcet.pipeline"; "wcet.path";
    "chain.validate"; "minic.interp"; "target.sim"; "service.run_request";
    "serve.connect"; "serve.roundtrip"; "serve.queue_wire" ]

let layer_counts : (string * string) list =
  [ ("vcomp.rewrites", "count"); ("vcomp.removed", "count");
    ("vcomp.hoisted", "count"); ("target.sim_cycles", "cycles");
    ("wcet.runs_decode", "count"); ("wcet.runs_value", "count");
    ("wcet.runs_bounds", "count"); ("wcet.runs_cache", "count");
    ("wcet.runs_pipeline", "count"); ("wcet.runs_ipet", "count");
    ("memo.hits", "count"); ("memo.disk_hits", "count");
    ("memo.misses", "count"); ("memo.writes", "count");
    ("memo.hit_ratio", "ratio"); ("par.busy_ratio", "ratio");
    ("trace.overhead_ratio", "ratio") ]

let layer_metrics : (string * string) list =
  List.concat_map (fun l -> [ (l ^ "_ms", "ms"); (l ^ "_share", "ratio") ]) layer_times
  @ layer_counts

(* Per-layer times from the traced run's spans, per node or request:
   [root] names the per-node (per-request) spans, whose summed time is
   the share denominator and whose number divides the totals;
   [derived] supplies layers that are differences of spans rather than
   spans. *)
let span_layers ?(derived = []) (spans : Trace.span list) ~(root : string) :
  (string * float) list =
  let denom = Trace.total_ms spans root in
  let roots =
    List.length (List.filter (fun s -> String.equal s.Trace.sp_name root) spans)
  in
  List.concat_map
    (fun l ->
       let ms =
         match List.assoc_opt l derived with
         | Some ms -> ms
         | None -> Trace.total_ms spans l
       in
       [ (l ^ "_ms", if roots = 0 then 0.0 else ms /. float roots);
         (l ^ "_share", if denom > 0.0 then ms /. denom else 0.0) ])
    layer_times

(* The memo and phase-run counters of an [analysis_stats] delta over
   [per] nodes or requests, per node or request. *)
let memo_layers ~(per : int) (d : Wcet.Report.analysis_stats) : (string * float) list =
  let f n = float n /. float (max 1 per) in
  let lookups = d.st_hits + d.st_disk_hits + d.st_misses in
  [ ("memo.hits", f d.st_hits); ("memo.disk_hits", f d.st_disk_hits);
    ("memo.misses", f d.st_misses); ("memo.writes", f d.st_writes);
    ("memo.hit_ratio",
     if lookups = 0 then 0.0
     else float (d.st_hits + d.st_disk_hits) /. float lookups);
    ("wcet.runs_decode", f d.st_decode); ("wcet.runs_value", f d.st_value);
    ("wcet.runs_bounds", f d.st_bounds); ("wcet.runs_cache", f d.st_cache);
    ("wcet.runs_pipeline", f d.st_pipeline); ("wcet.runs_ipet", f d.st_ipet) ]

let zero_stats : Wcet.Report.analysis_stats =
  { st_hits = 0; st_disk_hits = 0; st_misses = 0; st_writes = 0;
    st_entries = 0; st_decode = 0; st_value = 0; st_bounds = 0; st_cache = 0;
    st_pipeline = 0; st_ipet = 0; st_omt = 0 }

(* Field-wise [op] of two [analysis_stats] (sums and deltas). *)
let combine_stats (op : int -> int -> int) (a : Wcet.Report.analysis_stats)
    (b : Wcet.Report.analysis_stats) : Wcet.Report.analysis_stats =
  { st_hits = op a.st_hits b.st_hits;
    st_disk_hits = op a.st_disk_hits b.st_disk_hits;
    st_misses = op a.st_misses b.st_misses;
    st_writes = op a.st_writes b.st_writes;
    st_entries = op a.st_entries b.st_entries;
    st_decode = op a.st_decode b.st_decode;
    st_value = op a.st_value b.st_value;
    st_bounds = op a.st_bounds b.st_bounds;
    st_cache = op a.st_cache b.st_cache;
    st_pipeline = op a.st_pipeline b.st_pipeline;
    st_ipet = op a.st_ipet b.st_ipet;
    st_omt = op a.st_omt b.st_omt }

(* Repeat [f] until [seconds] have passed (at least once); the results
   in order. *)
let repeat_for (seconds : float) (f : int -> 'a) : 'a list =
  let deadline = Stats.now () +. seconds in
  let rec go k acc =
    let acc = f k :: acc in
    if Stats.now () >= deadline then List.rev acc else go (k + 1) acc
  in
  go 0 []

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []
