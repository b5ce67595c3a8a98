(* perfbench — the repository benchmark.

   main.exe --workload flight-vcomp|flight-o0|serve-repeat
            [--seed N] [--seconds S] [--trace 0|1]
            [--nodes N] [--hot N] [--fresh-share F] [--jobs N]

   Prints the recorded parameters and every metric by name with its
   unit, then, as the last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics of the traced run
   with --trace 1. Exits 1 when any output check failed. Spans of the
   traced run are written to .perfbench/trace-<workload>-<seed>.json. *)

let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] ..."

(* Every digit of a finite float, as JSON. *)
let json_float (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 2026 and seconds = ref 10.0
  and trace = ref 0 and nodes = ref 45 and hot = ref 60
  and fresh_share = ref 0.3 and jobs = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME flight-vcomp, flight-o0 or serve-repeat");
      ("--seed", Arg.Set_int seed, "N workload seed (default 2026)");
      ("--seconds", Arg.Set_float seconds, "S measured time of the run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 also make the traced run (default 0)");
      ("--nodes", Arg.Set_int nodes, "N nodes per batch run (flight workloads, default 45)");
      ("--hot", Arg.Set_int hot, "N hot-set size (serve-repeat, default 60)");
      ("--fresh-share", Arg.Set_float fresh_share,
       "F share of never-seen sources (serve-repeat, default 0.3)");
      ("--jobs", Arg.Set_int jobs, "N domains or clients (default: nproc)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !nodes < 1 || !hot < 1 || !seconds <= 0.0 then begin
    prerr_endline ("perfbench: --nodes, --hot and --seconds must be positive\n" ^ usage);
    exit 2
  end;
  let nproc = Fcstack.Par.default_jobs () in
  let dir = ".perfbench" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let p =
    { Bench.workload = !workload; seed = !seed; seconds = !seconds;
      trace = !trace <> 0;
      nodes = !nodes;
      hot = !hot; fresh_share = !fresh_share;
      jobs = (if !jobs > 0 then !jobs else nproc);
      nproc; dir }
  in
  let o =
    match p.workload with
    | "flight-vcomp" -> Flight.run p Fcstack.Chain.Cvcomp
    | "flight-o0" -> Flight.run p Fcstack.Chain.Cdefault_o0
    | "serve-repeat" -> Serve.run p
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n%s\n" w usage;
      exit 2
  in
  let params =
    [ ("workload", Printf.sprintf "%S" p.workload); ("seed", string_of_int p.seed);
      ("seconds", json_float p.seconds); ("trace", string_of_bool p.trace);
      ("nproc", string_of_int p.nproc); ("jobs", string_of_int p.jobs);
      ("clients", string_of_int (if p.workload = "serve-repeat" then p.jobs else 0));
      ("nodes", string_of_int p.nodes); ("hot", string_of_int p.hot);
      ("fresh_share", json_float p.fresh_share);
      ("oversubscribed", string_of_bool (p.jobs > p.nproc)) ]
    @ o.Bench.notes
  in
  if p.jobs > p.nproc then
    Printf.eprintf "perfbench: warning: jobs %d > nproc %d (oversubscribed)\n%!" p.jobs p.nproc;
  let declared, values =
    if p.trace then (Bench.layer_metrics, o.layers) else (Bench.e2e_metrics, o.e2e)
  in
  let metrics =
    List.map
      (fun (name, unit) -> (name, Option.value ~default:0.0 (List.assoc_opt name values), unit))
      declared
  in
  let unmeasured =
    List.filter_map
      (fun (name, v, _) -> if Float.is_finite v then None else Some (name ^ " was not measured"))
      metrics
  in
  let problems = o.problems @ unmeasured in
  List.iter (fun m -> Printf.eprintf "perfbench: check failed: %s\n" m) (Bench.take 20 problems);
  let metrics =
    List.map (fun (name, v, unit) -> (name, (if Float.is_finite v then v else 0.0), unit)) metrics
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-28s %14.6f %s\n" name v unit) metrics;
  Printf.printf "{\"perfbench\": {%s}}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) params));
  let correct = problems = [] && o.failed = 0 in
  let attempted = max 1 o.attempted in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted (min attempted (o.failed + List.length unmeasured))
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
          metrics));
  exit (if correct then 0 else 1)
