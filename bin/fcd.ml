(* fcd — persistent compilation daemon.

   Owns one warm [Fcstack.Service] session — the shared WCET analysis
   cache (memory, plus disk with --cache-dir) and the Domain pool —
   and serves compile/analyze requests over a Unix-domain socket
   (--socket PATH) or a single stdin/stdout connection (--stdio).
   fcc/aitw talk to it with --connect; the wire protocol is
   Fcstack.Wire's length-prefixed fcd1 frames.

   Answers are byte-identical to what a cold batch run would produce:
   the warm cache changes wall clock, never results (request 2+ of a
   repeated analysis shows "0 misses" in the per-request stderr
   accounting). SIGTERM shuts the accept loop down cleanly — the
   socket is unlinked and the store GC budget applied; killing the
   daemon mid-request never corrupts the store (crash-safe writes) and
   never yields a wrong answer (clients see a transport failure and
   retry). --max-requests N exits after N requests, so tests get a
   deterministic daemon lifetime without PID management.

   Resilience posture (see DESIGN.md "Failure model of the service"):
   one hostile or dying connection costs only itself — oversized
   frames are refused before allocation, a slow-loris peer is poisoned
   by --read-timeout-ms, any escape from a connection is logged and
   contained, and past --pending-budget waiting connections new
   arrivals are shed with a fast busy frame. fcd refuses to start on a
   socket another live daemon is accepting on (exit 1), and --ping
   probes a daemon's liveness without consuming its request budget. *)

let ping (path : string) : int =
  let open Fcstack in
  match Service.Client.connect path with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok conn ->
    let r =
      Service.Client.request ~timeout_s:10.0 conn
        (Request.make ~name:"ping" ~action:Request.Ping "")
    in
    Service.Client.close conn;
    (match r.Response.rs_status with
     | Response.Sok ->
       print_string r.Response.rs_output;
       0
     | _ ->
       List.iter
         (fun d -> prerr_endline (Diag.to_string d))
         r.Response.rs_diags;
       1)

let run (socket : string option) (stdio : bool) (ping_path : string option)
    (max_requests : int option) (jobs : int) (pending_budget : int)
    (read_timeout_ms : int) (copts : Fcstack.Cliopts.cache_opts) : int =
  let open Fcstack in
  match ping_path with
  | Some path -> ping path
  | None ->
    (* Every fresh source stays in the session's memory memo, and under
       the default major-GC pacing (space_overhead 120) each small
       retained entry grows the heap by several times its size: the
       faster the daemon answers, the faster its RSS climbs. Pin a
       tighter pacing once, for the daemon's whole life. *)
    Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
    let session =
      Service.create ~state:(Cliopts.session_of_opts ~jobs copts) ()
    in
    let finish () =
      Cliopts.report_session_stats session;
      Service.gc session;
      Printf.eprintf "fcd: served %d request(s)\n%!" (Service.served session)
    in
    if stdio then begin
      Service.serve_stdio ?max_requests session;
      finish ();
      0
    end
    else
      (match socket with
       | None ->
         prerr_endline "fcd: either --socket PATH, --stdio or --ping is required";
         2
       | Some path ->
         let stop = ref false in
         (* the handler only flips the flag; the interrupted wait
            returns EINTR and the loop re-checks it — clean shutdown *)
         Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
         (match
            Service.serve_unix ?max_requests ~stop:(fun () -> !stop)
              ~pending_budget
              ?read_timeout_ms:
                (if read_timeout_ms <= 0 then None else Some read_timeout_ms)
              session path
          with
          | () ->
            finish ();
            0
          | exception Failure msg ->
            (* a live daemon already owns the socket: refuse loudly
               instead of fighting it for the path *)
            Printf.eprintf "fcd: %s\n%!" msg;
            1))

open Cmdliner

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv) (unlinked on \
                 shutdown). Refuses to start if another live daemon is \
                 accepting on $(docv); a stale socket file left by a \
                 dead daemon is removed and rebound.")

let stdio_arg =
  Arg.(value & flag
       & info [ "stdio" ]
           ~doc:"Serve a single connection over stdin/stdout instead of a \
                 socket (for tests and pipelines).")

let ping_arg =
  Arg.(value & opt (some string) None
       & info [ "ping" ] ~docv:"PATH"
           ~doc:"Probe the daemon at $(docv): print its pong line \
                 (served count, jobs, cache kind) and exit 0 if it \
                 answers, 1 otherwise. Liveness probes run no toolchain \
                 work and do not consume a $(b,--max-requests) budget, \
                 so supervisors can poll freely.")

let max_requests_arg =
  Arg.(value & opt (some int) None
       & info [ "max-requests" ] ~docv:"N"
           ~doc:"Exit after answering $(docv) requests — a deterministic \
                 daemon lifetime for tests.")

let jobs_arg =
  Fcstack.Cliopts.jobs_term
    ~doc:"Width of the session's Domain pool (reserved for future \
          request-level fan-out; requests on one connection are served \
          in order)."

let pending_budget_arg =
  Arg.(value & opt int 16
       & info [ "pending-budget" ] ~docv:"N"
           ~doc:"Maximum connections queued for service (default 16); \
                 past it, new arrivals are shed with a fast busy frame \
                 the clients retry on — bounded latency instead of an \
                 unbounded queue.")

let read_timeout_ms_arg =
  Arg.(value & opt int 10_000
       & info [ "read-timeout-ms" ] ~docv:"MS"
           ~doc:"Per-read timeout once a peer has committed to a frame \
                 (default 10000; 0 disables). A sender that stalls \
                 mid-frame is refused and disconnected — it cannot park \
                 the daemon. Idle connections are unaffected.")

let cmd =
  let doc = "persistent compile+analyze daemon (warm-cache serve loop)" in
  Cmd.v
    (Cmd.info "fcd" ~doc)
    Term.(
      const run $ socket_arg $ stdio_arg $ ping_arg $ max_requests_arg
      $ jobs_arg $ pending_budget_arg $ read_timeout_ms_arg
      $ Fcstack.Cliopts.cache_term)

let () = exit (Cmd.eval' cmd)
