(* Deterministic chaos harness for the fault-isolated pipeline.

   The harness takes a fault-free workload, injects a seeded, exactly
   reproducible set of per-node faults, and re-runs the chain under a
   matrix of configurations (sequential/parallel, cacheless/shared
   cache/corrupted persistent store, a real fcd daemon under hostile
   peers). It then *proves* the containment contract rather than
   eyeballing it:

     - every non-victim node's result is byte-identical to the
       fault-free reference run;
     - the diagnostics name exactly the victim nodes, each at the
       expected stage;
     - the exit code classifies the run (0 all ok / 1 partial / 2
       total failure);
     - a truncated persistent store causes ZERO failures — store
       corruption is a cache miss, never an error.

   Faults are injected at the mini-C source level (so every chain
   stage downstream is exercised for real) or through the per-node
   config (starved analysis fuel). All randomness flows from one
   [Random.State] seeded by the caller: the same seed always picks the
   same victims with the same faults.

   The matrix is data: [legs] is one table of named rows, each a
   function from the shared [ctx] to its violations. Adding a leg is
   adding a row; the rows share one daemon lifecycle ([with_fcd]), one
   faulted-node function ([run_node]) and one store-leg runner. *)

type fault =
  | Fcorrupt_source  (* undeclared-variable write: fails typecheck *)
  | Frefusal         (* unbounded volatile-driven loop: analyzer refuses *)
  | Ffuel            (* starved analysis fuel: "analysis diverged" refusal *)

let fault_name = function
  | Fcorrupt_source -> "corrupt-source"
  | Frefusal -> "refusal"
  | Ffuel -> "fuel-exhaustion"

(* The stage at which each fault must surface as a diagnostic. *)
let expected_stage = function
  | Fcorrupt_source -> Diag.Typecheck
  | Frefusal | Ffuel -> Diag.Wcet

type plan = (int * fault) list  (* victim node index -> injected fault *)

(* Pick [victims] distinct node indices and a fault for each, entirely
   determined by [seed]. Victims cycle through all three fault kinds so
   every run exercises every containment path. *)
let make_plan ~(seed : int) ~(nodes : int) ~(victims : int) : plan =
  let rng = Random.State.make [| seed; nodes; victims |] in
  let victims = min victims (max 0 (nodes - 1)) in
  let chosen = Hashtbl.create 8 in
  let rec pick () =
    let i = Random.State.int rng nodes in
    if Hashtbl.mem chosen i then pick () else (Hashtbl.add chosen i (); i)
  in
  List.init victims (fun k ->
      let kinds = [| Fcorrupt_source; Frefusal; Ffuel |] in
      (pick (), kinds.(k mod Array.length kinds)))
  |> List.sort compare

(* ---- fault injectors ------------------------------------------------ *)

let map_main (src : Minic.Ast.program)
    (f : Minic.Ast.func -> Minic.Ast.func) : Minic.Ast.program =
  { src with
    Minic.Ast.prog_funcs =
      List.map
        (fun fn ->
           if fn.Minic.Ast.fn_name = src.Minic.Ast.prog_main then f fn else fn)
        src.Minic.Ast.prog_funcs }

(* A write to a variable no scope declares: the typechecker rejects the
   program, exercising the earliest containment stage. *)
let corrupt_source (src : Minic.Ast.program) : Minic.Ast.program =
  map_main src (fun fn ->
      { fn with
        Minic.Ast.fn_body =
          Minic.Ast.Sseq
            ( fn.Minic.Ast.fn_body,
              Minic.Ast.Sassign ("__chaos_undeclared", Minic.Ast.Econst_int 0l)
            ) })

(* A loop whose trip count depends on a volatile acquisition: the value
   analysis knows nothing about the signal, so the bound analysis finds
   no loop bound and the analyzer *refuses* — a genuine aiT-style
   analysis failure, not a crash. The program still typechecks. *)
let inject_refusal (src : Minic.Ast.program) : Minic.Ast.program =
  let open Minic.Ast in
  let src =
    { src with
      prog_volatiles = ("__chaos_sig", Tint, Vol_in) :: src.prog_volatiles }
  in
  map_main src (fun fn ->
      let loop =
        Sseq
          ( Sassign ("__chaos_i", Evolatile "__chaos_sig"),
            Swhile
              ( Ebinop (Ocmp Cgt, Evar "__chaos_i", Econst_int 0l),
                Sassign
                  ("__chaos_i", Ebinop (Oadd, Evar "__chaos_i", Econst_int 1l))
              ) )
      in
      { fn with
        fn_locals = ("__chaos_i", Tint) :: fn.fn_locals;
        fn_body = Sseq (loop, fn.fn_body) })

(* The one place a fault becomes a (config, source) pair: source faults
   edit the program, [Ffuel] starves the node's analysis budget. *)
let apply_fault (f : fault) (config : Toolchain.config)
    (src : Minic.Ast.program) : Toolchain.config * Minic.Ast.program =
  match f with
  | Fcorrupt_source -> (config, corrupt_source src)
  | Frefusal -> (config, inject_refusal src)
  | Ffuel -> ({ config with Toolchain.analysis_fuel = Wcet.Fuel.starved }, src)

(* ---- result canonicalization ---------------------------------------- *)

(* Canonical byte rendering of one node's full chain output; the
   containment contract is stated as string equality of these. *)
let render_result (r : Par.node_result) : string =
  Printf.sprintf "node %s\nwcet %d\nvalidation %s\n%s" r.Par.pn_name
    r.Par.pn_wcet
    (match r.Par.pn_validation with
     | Ok () -> "ok"
     | Error m -> "FAIL " ^ m)
    (Target.Emit.program_to_string r.Par.pn_asm)

(* ---- shared leg context --------------------------------------------- *)

(* One (request, cold-batch expectation) per node, which the daemon
   legs replay to prove the daemon answers correctly. *)
type probe = { pr_name : string; pr_rq : Request.t; pr_expect : string }

type ctx = {
  plan : plan;
  base : Toolchain.config;
  reference : string array;  (* fault-free [render_result] per node *)
  named : (string * Minic.Ast.program) list;
  probes : probe list;       (* empty unless the daemon legs run *)
  seed : int;
  fcd_exe : string option;
}

(* Analyze requests for the workload, each paired with its answer from
   a cold, cacheless in-process session. *)
let analyze_probes ~(engine : Wcet.Report.engine)
    (named : (string * Minic.Ast.program) list) : probe list =
  let opts = Toolchain.request_opts ~engine () in
  let s = Service.create () in
  List.map
    (fun (name, src) ->
       let rq =
         Request.make ~name
           ~action:
             (Request.Analyze
                { an_compare = false; an_simulate = false; an_annot = None })
           ~opts
           (Minic.Pp.program_to_string src)
       in
       { pr_name = name; pr_rq = rq;
         pr_expect = (Service.run_request s rq).Response.rs_output })
    named

let has_sub (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else Sys.remove path

let with_tmp_dir (f : string -> 'a) : 'a =
  let dir = Filename.temp_dir "fcchaos-" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- in-process legs ------------------------------------------------- *)

(* One node of a leg: faulted per [plan], contained by [Par.chain_node]. *)
let run_node ~(plan : plan) ~(config : Toolchain.config)
    ((i, (name, src)) : int * (string * Minic.Ast.program)) :
  (Par.node_result, Diag.t) Result.t =
  let config, src =
    match List.assoc_opt i plan with
    | None -> (config, src)
    | Some fault -> apply_fault fault config src
  in
  Par.chain_node ~config name src

let indexed (ctx : ctx) : (int * (string * Minic.Ast.program)) list =
  List.mapi (fun i n -> (i, n)) ctx.named

let run_batch (ctx : ctx) ~(plan : plan) ~(jobs : int)
    ~(cache : Wcet.Memo.t option) : (Par.node_result, Diag.t) Result.t list =
  let config = { ctx.base with Toolchain.jobs; cache } in
  Par.map_list ~jobs (run_node ~plan ~config) (indexed ctx)

(* Check one leg's outcomes against the reference renderings and
   [plan]; returns the violations (empty = contract holds). *)
let check_leg (ctx : ctx) ~(plan : plan)
    (outcomes : (Par.node_result, Diag.t) Result.t list) : string list =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iteri
    (fun i outcome ->
       let name = fst (List.nth ctx.named i) in
       match List.assoc_opt i plan, outcome with
       | None, Ok r ->
         if render_result r <> ctx.reference.(i) then
           bad "survivor %s diverged from the fault-free run" name
       | None, Error d ->
         bad "non-victim %s failed: %s" name (Diag.to_string d)
       | Some fault, Error d ->
         if d.Diag.d_node <> name then
           bad "diagnostic for %s names node %s" name d.Diag.d_node;
         if d.Diag.d_stage <> expected_stage fault then
           bad "%s fault on %s surfaced at stage %s, expected %s"
             (fault_name fault) name
             (Diag.stage_name d.Diag.d_stage)
             (Diag.stage_name (expected_stage fault));
         if fault = Ffuel && not (has_sub d.Diag.d_message "diverged") then
           bad "fuel exhaustion on %s not reported as divergence: %s" name
             d.Diag.d_message
       | Some fault, Ok _ ->
         bad "%s fault on %s went undetected" (fault_name fault) name)
    outcomes;
  let failed = List.length (Diag.errors_of outcomes) in
  let code = Diag.exit_code ~total:(List.length outcomes) ~failed in
  let expected_code = if plan = [] then 0 else 1 in
  if code <> expected_code then
    bad "exit code %d, expected %d (%d/%d failed)" code expected_code failed
      (List.length outcomes);
  List.rev !problems

(* The faulted workload under one (jobs x cache) configuration; a
   memory cache is fresh per leg. *)
let batch_leg ~(jobs : int) ~(memo : bool) (ctx : ctx) : string list =
  let cache = if memo then Some (Wcet.Memo.create ()) else None in
  check_leg ctx ~plan:ctx.plan (run_batch ctx ~plan:ctx.plan ~jobs ~cache)

(* The same faulted workload through the bounded-buffer stream: shards
   of 5 nodes pulled lazily, chain outcomes folded back in global node
   order. Containment must be shape-blind — a fault in the middle of a
   shard may not disturb any other node, in its shard or out of it. *)
let stream_leg (ctx : ctx) : string list =
  let jobs = 4 and shard_size = 5 in
  let config =
    { ctx.base with Toolchain.jobs; cache = Some (Wcet.Memo.create ()) }
  in
  let arr = Array.of_list (indexed ctx) in
  let producer k =
    let lo = k * shard_size in
    if lo >= Array.length arr then None
    else
      Some
        (Array.map
           (fun node () -> run_node ~plan:ctx.plan ~config node)
           (Array.sub arr lo (min shard_size (Array.length arr - lo))))
  in
  check_leg ctx ~plan:ctx.plan
    (List.rev
       (Par.run_stream ~jobs ~consumer:(fun acc _ r -> r :: acc) ~init:[]
          ~producer ()))

(* The fault-free workload against a persistent store in [dir]. *)
let run_on_store (ctx : ctx) (dir : string) :
  (Par.node_result, Diag.t) Result.t list =
  run_batch ctx ~plan:[] ~jobs:2 ~cache:(Some (Wcet.Memo.create ~dir ()))

(* A store-fault leg: [prepare] damages a fresh store directory, then a
   fault-free run over it must behave exactly like an uncached one —
   zero failures, reference-identical bytes. A store fault is a silent
   miss, never an error. *)
let store_leg (prepare : ctx -> string -> unit) (ctx : ctx) : string list =
  with_tmp_dir (fun dir ->
      prepare ctx dir;
      check_leg ctx ~plan:[] (run_on_store ctx dir))

(* Truncate every entry of a persistent store to half its size —
   simulating a crash mid-write or disk corruption. Recursive: store
   entries may live in subdirectories. *)
let rec truncate_store (dir : string) : unit =
  Array.iter
    (fun f ->
       let path = Filename.concat dir f in
       if Sys.is_directory path then truncate_store path
       else begin
         let ic = open_in_bin path in
         let keep = in_channel_length ic / 2 in
         let buf = really_input_string ic keep in
         close_in ic;
         let oc = open_out_bin path in
         output_string oc buf;
         close_out oc
       end)
    (Sys.readdir dir)

(* ENOSPC-style store write failure: every 2-hex fanout slot of the
   store directory is pre-created as a regular FILE, so every entry
   write fails (ENOTDIR under the slot) and every load misses — an
   injected persistent-store write failure without filling a disk. *)
let clog_fanout (dir : string) : unit =
  let hex = "0123456789abcdef" in
  String.iter
    (fun a ->
       String.iter
         (fun b ->
            close_out
              (open_out (Filename.concat dir (Printf.sprintf "%c%c" a b))))
         hex)
    hex

(* ---- daemon legs: a real fcd child ----------------------------------- *)

(* A live fcd child as a leg sees it. *)
type daemon = {
  socket : string;
  signal : int -> unit;    (* deliver a signal to the current daemon *)
  restart : unit -> unit;  (* SIGKILL (if still alive) and reap the
                              daemon, clear the stale socket, start a
                              fresh daemon on the same path (and the
                              same store) *)
  bad : string -> unit;    (* record a violation *)
}

(* Spawn a daemon in a fresh tmp dir, run [f] against it, then shut it
   down cleanly and *check the exit status*: nothing a hostile peer did
   during the leg may leak into the daemon's exit — a daemon that dies
   nonzero from a contained connection failure is itself a containment
   violation. [store] gives the daemon a persistent store that
   survives [restart]. Shutdown falls back to SIGTERM (also a clean
   path) when the socket is gone, and the reap never blocks forever: a
   daemon that ignores both is a violation to report, not a hang. *)
let with_fcd ?(store = false) ?pending_budget ?read_timeout_ms (ctx : ctx)
    (f : daemon -> unit) : string list =
  (* raw hostile writes against a daemon that already hung up must
     surface as EPIPE, not kill the harness *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let problems = ref [] in
  let bad s = problems := s :: !problems in
  with_tmp_dir (fun dir ->
      let socket = Filename.concat dir "fcd.sock" in
      let cache_dir =
        if store then Some (Filename.concat dir "store") else None
      in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
      let pid = ref (-1) in
      let start () =
        pid :=
          Service.spawn ~stderr_to:devnull
            (Service.daemon_argv ~exe:(Option.get ctx.fcd_exe) ~socket
               ?cache_dir ?pending_budget ?read_timeout_ms ());
        if not (Service.wait_for_path socket) then
          bad "daemon socket never appeared"
      in
      let signal s =
        if !pid > 0 then try Unix.kill !pid s with Unix.Unix_error _ -> ()
      in
      let restart () =
        (* kill before the blocking reap, so a daemon a leg failed to
           kill cannot hang the harness; remove the stale path so
           [wait_for_path] waits for the NEW daemon's bind *)
        if !pid > 0 then begin
          signal Sys.sigkill;
          (try ignore (Unix.waitpid [] !pid) with Unix.Unix_error _ -> ());
          pid := -1
        end;
        (try Sys.remove socket with Sys_error _ -> ());
        start ()
      in
      start ();
      (try f { socket; signal; restart; bad }
       with e -> bad ("leg raised: " ^ Printexc.to_string e));
      (match Service.Client.connect socket with
       | Ok c -> Service.Client.shutdown c
       | Error msg ->
         bad ("cannot connect for shutdown: " ^ msg);
         signal Sys.sigterm);
      (if !pid > 0 then
         let deadline = Unix.gettimeofday () +. 10.0 in
         let rec reap () =
           match Unix.waitpid [ Unix.WNOHANG ] !pid with
           | 0, _ ->
             if Unix.gettimeofday () > deadline then begin
               bad "daemon did not exit within 10s of shutdown; killed";
               signal Sys.sigkill;
               ignore (Unix.waitpid [] !pid)
             end
             else begin
               Unix.sleepf 0.02;
               reap ()
             end
           | _, Unix.WEXITED 0 -> ()
           | _, Unix.WEXITED n ->
             bad (Printf.sprintf "daemon exited %d after the leg" n)
           | _, _ -> bad "daemon died on a signal after the leg"
         in
         try reap () with Unix.Unix_error _ -> ());
      try Unix.close devnull with Unix.Unix_error _ -> ());
  List.rev !problems

(* One request on a fresh connection; a failed connect is a transport
   failure like any other. *)
let request_once (socket : string) (p : probe) : Response.t =
  match Service.Client.connect socket with
  | Error msg -> Response.transport ~node:p.pr_name msg
  | Ok c ->
    let r = Service.Client.request ~timeout_s:60.0 c p.pr_rq in
    Service.Client.close c;
    r

(* [request_once] under the retry policy (20 ms base backoff). *)
let retry ?(attempts = Retry.default.Retry.r_attempts) ?on_retry ~(seed : int)
    (d : daemon) (p : probe) : Response.t =
  fst
    (Retry.run
       ~policy:
         { Retry.default with
           Retry.r_attempts = attempts; r_base_ms = 20; r_seed = seed }
       ?on_retry
       (fun ~attempt:_ -> request_once d.socket p))

(* An answer must be [Sok] and byte-identical to the cold batch run. *)
let expect_answer (d : daemon) ~(note : string) (p : probe) (r : Response.t) :
  unit =
  if r.Response.rs_status <> Response.Sok then
    d.bad
      (Printf.sprintf "%s: request %s not ok (%s)" note p.pr_name
         (Response.status_to_string r.Response.rs_status))
  else if r.Response.rs_output <> p.pr_expect then
    d.bad
      (Printf.sprintf "%s: response for %s diverged from the cold batch \
                       reference" note p.pr_name)

(* A request the daemon cannot answer must be a transport failure —
   never a wrong answer. *)
let expect_transport (d : daemon) ~(what : string) (r : Response.t) : unit =
  if r.Response.rs_status <> Response.Stransport then
    d.bad
      (Printf.sprintf "%s returned %s, expected a transport failure" what
         (Response.status_to_string r.Response.rs_status))

let raw_connect (socket : string) : Unix.file_descr option =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

let raw_close (fd : Unix.file_descr) : unit =
  try Unix.close fd with Unix.Unix_error _ -> ()

let raw_reader ?(timeout_s = 10.0) (fd : Unix.file_descr) : Wire.fd_reader =
  let rd = Wire.fd_reader fd in
  Wire.set_read_timeout rd (Some timeout_s);
  rd

(* A hostile peer: connect raw, write [bytes] verbatim, hand the
   connection to [k], hang up. *)
let raw_exchange (d : daemon) ~(what : string) ?timeout_s (bytes : string)
    (k : Unix.file_descr -> Wire.fd_reader -> unit) : unit =
  match raw_connect d.socket with
  | None -> d.bad ("connect for " ^ what ^ " failed")
  | Some fd ->
    let b = Bytes.of_string bytes in
    (match
       let pos = ref 0 in
       while !pos < Bytes.length b do
         pos := !pos + Unix.write fd b !pos (Bytes.length b - !pos)
       done
     with
     | () -> k fd (raw_reader ?timeout_s fd)
     | exception Unix.Unix_error _ -> d.bad ("could not send " ^ what));
    raw_close fd

let frame_desc : Wire.frame -> string = function
  | Wire.Frame (k, _) -> Printf.sprintf "a %S frame" k
  | Wire.Eof -> "EOF"
  | Wire.Bad m -> Printf.sprintf "protocol error %S" m

let read_frame (rd : Wire.fd_reader) : Wire.frame =
  Wire.read_frame_fd ~idle_timeout:true rd

(* The next frame must be an err frame (naming [sub], when given). *)
let expect_err (d : daemon) ~(what : string) ?sub (rd : Wire.fd_reader) :
  unit =
  match read_frame rd with
  | Wire.Frame ("err", msg) ->
    if not (Option.fold ~none:true ~some:(has_sub msg) sub) then
      d.bad (Printf.sprintf "%s refused with unexpected message: %s" what msg)
  | f ->
    d.bad
      (Printf.sprintf "%s answered with %s, expected an err frame" what
         (frame_desc f))

(* SIGKILL the daemon under two seeded requests of a request stream on
   one connection. The in-flight request surfaces as a transport
   failure (never a wrong answer), the retry against a restarted
   daemon — same socket, same disk store — succeeds, and every answer
   is byte-identical to a cold in-process batch run. *)
let fcd_kill_restart (ctx : ctx) : string list =
  let n = List.length ctx.probes in
  let rng = Random.State.make [| ctx.seed; 0xfcd |] in
  let kill_at =
    if n < 2 then []
    else
      let a = Random.State.int rng n in
      [ a; (a + 1 + Random.State.int rng (n - 1)) mod n ]
  in
  with_fcd ctx ~store:true (fun d ->
      let conn = ref (Service.Client.connect d.socket) in
      let request p =
        match !conn with
        | Error msg -> Response.transport ~node:p.pr_name msg
        | Ok c -> Service.Client.request ~timeout_s:60.0 c p.pr_rq
      in
      let close () =
        match !conn with Ok c -> Service.Client.close c | Error _ -> ()
      in
      List.iteri
        (fun i p ->
           let killed = List.mem i kill_at in
           if killed then begin
             d.signal Sys.sigkill;
             expect_transport d (request p)
               ~what:(Printf.sprintf "request %s against a killed daemon"
                        p.pr_name);
             d.restart ();
             close ();
             conn := Service.Client.connect d.socket
           end;
           expect_answer d p (request p)
             ~note:(if killed then "retry after restart" else "stream"))
        ctx.probes;
      close ())

(* Hostile frames: an oversized length prefix must be refused before
   any allocation and poison the stream; a torn frame (header promises
   more payload than ever arrives) must cost only its own connection;
   well-framed garbage must cost only that request — and after all
   three the same daemon still serves a real request byte-identically. *)
let oversized_frame (ctx : ctx) (p : probe) : string list =
  with_fcd ctx (fun d ->
      (* (a) hostile length prefix, far beyond any legal frame *)
      raw_exchange d ~what:"the oversized prefix" "fcd1 req 999999999999\n"
        (fun _ rd ->
           expect_err d ~what:"oversized prefix" rd;
           match read_frame rd with
           | Wire.Eof -> ()
           | f ->
             d.bad
               (Printf.sprintf
                  "stream not poisoned after an oversized prefix (%s)"
                  (frame_desc f)));
      (* (b) torn frame: promise 100 payload bytes, send 10, hang up *)
      raw_exchange d ~what:"the torn frame" "fcd1 req 100\n0123456789"
        (fun fd rd ->
           (try Unix.shutdown fd Unix.SHUTDOWN_SEND
            with Unix.Unix_error _ -> ());
           expect_err d ~what:"torn frame" ~sub:"truncated" rd);
      (* (c) well-framed garbage costs the request, not the
         connection: the same connection then serves a real request *)
      raw_exchange d ~what:"the garbage frame" ~timeout_s:60.0
        "fcd1 req 9\ngarbage!!" (fun fd rd ->
            expect_err d ~what:"garbage request" rd;
            match
              Wire.write_frame_fd fd ~kind:"req" (Request.to_wire p.pr_rq)
            with
            | exception Unix.Unix_error _ ->
              d.bad "connection closed by well-framed garbage"
            | () ->
              (match read_frame rd with
               | Wire.Frame ("resp", payload) ->
                 (match Response.of_wire payload with
                  | Ok r -> expect_answer d ~note:"after garbage" p r
                  | Error e ->
                    d.bad ("undecodable response after garbage: " ^ e))
               | f ->
                 d.bad
                   (Printf.sprintf
                      "connection poisoned by well-framed garbage (%s)"
                      (frame_desc f))));
      (* (d) a fresh connection still gets the right answer *)
      expect_answer d ~note:"after hostile frames" p (request_once d.socket p))

(* Slow-loris: a peer that commits to a frame and then stalls past the
   daemon's read timeout is poisoned (err frame naming the timeout,
   hang up) — and the daemon immediately serves the next client. *)
let slow_loris (ctx : ctx) (p : probe) : string list =
  with_fcd ctx ~read_timeout_ms:250 (fun d ->
      (* half a header, then silence: past --read-timeout-ms the daemon
         must poison the stream, not wait us out *)
      raw_exchange d ~what:"the partial header" "fcd1 re" (fun _ rd ->
          expect_err d ~what:"stalled sender" ~sub:"timed out" rd);
      expect_answer d ~note:"after the slow-loris peer" p
        (request_once d.socket p))

(* SIGSTOP'd daemon: the client's deadline fires (a transport failure,
   never a hang, never a wrong answer); after SIGCONT the retry policy
   reconnects and succeeds byte-identically. *)
let sigstop_deadline (ctx : ctx) (p : probe) : string list =
  with_fcd ctx (fun d ->
      match Service.Client.connect d.socket with
      | Error msg -> d.bad ("connect failed: " ^ msg)
      | Ok c ->
        d.signal Sys.sigstop;
        expect_transport d ~what:"request against a stopped daemon"
          (Service.Client.request ~timeout_s:0.5 c
             { p.pr_rq with Request.rq_deadline_ms = Some 400 });
        Service.Client.close c;
        d.signal Sys.sigcont;
        expect_answer d ~note:"retry after SIGCONT" p (retry ~seed:1 d p))

(* Overload + crash: with a pending budget of 1, park one connection in
   service and one in the queue so the next arrival is shed with a fast
   busy frame; the shed request is retried to success once the load
   drains. Then SIGKILL the daemon and retry the next request through a
   restart. Every answered byte matches the cold batch reference. *)
let kill_under_load (ctx : ctx) : string list =
  with_fcd ctx ~pending_budget:1 (fun d ->
      match ctx.probes with
      | [] -> ()
      | p0 :: rest ->
        (* phase 1: saturate. [load_a] is meant to be in service
           (blocked on its first header byte — idle is legal) while
           [load_b] fills the budget-1 pending queue. But if the daemon
           is still mid-startup both loads sit in the listen backlog
           and get drained in ONE accept batch, shedding [load_b]
           itself — a later arrival would then be queued, not shed. So
           saturation is OBSERVED, not assumed: probe with raw
           connections until one reads a busy frame. A probe that
           times out instead was queued, and (closed or not) it keeps
           holding the queue slot until the serve loop reaps it, so the
           next probe is deterministically shed. *)
        let load_a = raw_connect d.socket in
        Unix.sleepf 0.1;
        let load_b = raw_connect d.socket in
        Unix.sleepf 0.1;
        if load_a = None || load_b = None then d.bad "load connections failed";
        let drained = ref false in
        let drain_load () =
          if not !drained then begin
            drained := true;
            List.iter (Option.iter raw_close) [ load_a; load_b ]
          end
        in
        let saw_busy = ref false and tries = ref 0 in
        while (not !saw_busy) && !tries < 20 do
          incr tries;
          match raw_connect d.socket with
          | None -> Unix.sleepf 0.05
          | Some fd ->
            (match read_frame (raw_reader ~timeout_s:2.0 fd) with
             | Wire.Frame ("busy", _) -> saw_busy := true
             | _ -> ());
            raw_close fd
        done;
        if not !saw_busy then
          d.bad "saturated daemon never shed a request with a busy frame";
        expect_answer d ~note:"shed request retried" p0
          (retry ~attempts:5 ~seed:2 d p0
             ~on_retry:(fun ~attempt:_ ~backoff_ms:_ _ -> drain_load ()));
        drain_load ();
        (* phase 2: SIGKILL mid-stream, retry through a restart *)
        match rest with
        | [] -> ()
        | p1 :: _ ->
          d.signal Sys.sigkill;
          let restarted = ref false in
          let r =
            retry ~attempts:5 ~seed:3 d p1
              ~on_retry:(fun ~attempt:_ ~backoff_ms:_ _ ->
                  if not !restarted then begin
                    restarted := true;
                    d.restart ()
                  end)
          in
          if not !restarted then
            d.bad "request against the killed daemon unexpectedly succeeded";
          expect_answer d ~note:"retry through the restart" p1 r)

(* ---- the leg table --------------------------------------------------- *)

type leg = {
  name : string;
  needs_fcd : bool;                (* skipped without a daemon binary *)
  run : ctx -> string list;        (* the leg's violations *)
}

(* The hostile legs replay probe [i] (cycling); an empty workload has
   nothing to replay. *)
let on_probe (i : int) (leg : ctx -> probe -> string list) (ctx : ctx) :
  string list =
  match ctx.probes with
  | [] -> []
  | ps -> leg ctx (List.nth ps (i mod List.length ps))

let legs : leg list =
  let inproc name run = { name; needs_fcd = false; run } in
  let daemon name run = { name; needs_fcd = true; run } in
  [ inproc "j1/nocache" (batch_leg ~jobs:1 ~memo:false);
    inproc "j4/nocache" (batch_leg ~jobs:4 ~memo:false);
    inproc "j1/memcache" (batch_leg ~jobs:1 ~memo:true);
    inproc "j4/memcache" (batch_leg ~jobs:4 ~memo:true);
    inproc "j4/stream/memcache" stream_leg;
    (* read corruption: warm a store, truncate every entry mid-byte *)
    inproc "truncated-store"
      (store_leg (fun ctx dir ->
           ignore (run_on_store ctx dir);
           truncate_store dir));
    (* write failure: every entry write fails *)
    inproc "enospc-store" (store_leg (fun _ dir -> clog_fanout dir));
    daemon "fcd-kill-restart" fcd_kill_restart;
    daemon "oversized-frame" (on_probe 0 oversized_frame);
    daemon "slow-loris" (on_probe 0 slow_loris);
    daemon "sigstop-deadline" (on_probe 1 sigstop_deadline);
    daemon "kill-under-load" kill_under_load ]

type report = {
  ch_nodes : int;
  ch_victims : (string * fault) list;
  ch_legs : string list;
  ch_problems : string list;  (* empty = every containment check held *)
}

(* Run every leg of the table (the daemon legs only with [fcd_exe])
   against one [nodes]-node workload with [victims] seeded faults.

   [engine] applies to the reference and every leg alike, so the
   containment contract (survivors byte-identical to the reference) is
   exercised per engine — including OMT fuel exhaustion surfacing as a
   contained "analysis diverged" refusal under [Ffuel]. *)
let run ?(seed = 20260806) ?(nodes = 14) ?(victims = 3)
    ?(engine = Wcet.Report.Ipet) ?fcd_exe () : report =
  let named =
    List.map
      (fun ((n : Scade.Symbol.node), src) -> (n.Scade.Symbol.n_name, src))
      (Scade.Workload.flight_program ~nodes ~seed:2026)
  in
  let plan = make_plan ~seed ~nodes:(List.length named) ~victims in
  let base = { Toolchain.default with Toolchain.engine } in
  (* fault-free reference: sequential, cacheless *)
  let reference =
    Array.of_list
      (List.map
         (fun (name, src) ->
            match Par.chain_node ~config:base name src with
            | Ok r -> render_result r
            | Error d ->
              failwith ("chaos: fault-free reference failed: "
                        ^ Diag.to_string d))
         named)
  in
  let probes =
    if fcd_exe = None then [] else analyze_probes ~engine named
  in
  let ctx = { plan; base; reference; named; probes; seed; fcd_exe } in
  let ran = List.filter (fun l -> fcd_exe <> None || not l.needs_fcd) legs in
  { ch_nodes = List.length named;
    ch_victims = List.map (fun (i, f) -> (fst (List.nth named i), f)) plan;
    ch_legs = List.map (fun l -> l.name) ran;
    ch_problems =
      List.concat_map
        (fun l -> List.map (fun p -> l.name ^ ": " ^ p) (l.run ctx))
        ran }

let print_report (ppf : Format.formatter) (r : report) : unit =
  Format.fprintf ppf "@[<v>chaos: %d nodes, %d faults injected@,"
    r.ch_nodes (List.length r.ch_victims);
  List.iter
    (fun (name, f) ->
       Format.fprintf ppf "  victim %-10s %s@," name (fault_name f))
    r.ch_victims;
  Format.fprintf ppf "  legs: %s@," (String.concat ", " r.ch_legs);
  (match r.ch_problems with
   | [] -> Format.fprintf ppf "chaos: all containment checks held@,"
   | ps ->
     List.iter (fun p -> Format.fprintf ppf "chaos VIOLATION: %s@," p) ps);
  Format.fprintf ppf "@]"
