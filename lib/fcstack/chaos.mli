(** Deterministic chaos harness: seeded fault injection against the
    per-node containment contract.

    The harness runs a fault-free reference, injects a seeded set of
    per-node faults (corrupted source, analyzer refusal, starved
    analysis fuel), re-runs the chain under a matrix of legs, and
    checks that: survivors are byte-identical to the reference, the
    diagnostics name exactly the victims at the expected stages, the
    exit code classifies the run, and store corruption causes zero
    failures.

    The legs are rows of one table inside the harness: a name, whether
    the leg needs a real [fcd] binary, and a function from the shared
    context (plan, base config, reference renderings, workload, cold
    request probes, seed, daemon path) to the leg's violations. Adding
    a leg is adding a row; the report's leg list and problem list are
    derived from the rows that ran, in table order.
    [test/test_chaos.ml] and [bench --chaos] both drive {!run}. *)

type fault =
  | Fcorrupt_source  (** undeclared-variable write: fails typecheck *)
  | Frefusal         (** unbounded volatile-driven loop: analyzer refuses *)
  | Ffuel            (** starved analysis fuel: "analysis diverged" *)

val fault_name : fault -> string
val expected_stage : fault -> Diag.stage

type plan = (int * fault) list

val make_plan : seed:int -> nodes:int -> victims:int -> plan
(** Victim indices and faults, a pure function of [seed]. *)

val apply_fault :
  fault -> Toolchain.config -> Minic.Ast.program ->
  Toolchain.config * Minic.Ast.program
(** The node's faulted (config, source): {!Fcorrupt_source} and
    {!Frefusal} edit the source; {!Ffuel} leaves the source untouched
    and starves the config's [analysis_fuel] instead. *)

val render_result : Par.node_result -> string
(** Canonical byte rendering of one node's chain output; the
    containment contract is string equality of these. *)

type report = {
  ch_nodes : int;
  ch_victims : (string * fault) list;
  ch_legs : string list;
  ch_problems : string list;  (** empty = every containment check held *)
}

val run :
  ?seed:int -> ?nodes:int -> ?victims:int -> ?engine:Wcet.Report.engine ->
  ?fcd_exe:string -> unit -> report
(** Run the whole matrix (defaults: seed 20260806, 14 nodes, 3
    victims, engine [Ipet]). Deterministic for a given seed. [engine]
    applies to the reference and to every leg, so containment is
    exercised per engine (survivor byte-identity is well-defined
    within one engine).

    The in-process legs always run, in this order: the (jobs x cache)
    legs [j1/nocache], [j4/nocache], [j1/memcache], [j4/memcache], the
    streaming leg [j4/stream/memcache], and two store legs:
    [truncated-store] (read corruption is a silent miss) and
    [enospc-store] (entry WRITE failures are a silent miss — the run
    is byte-identical to an uncached one, zero failures).

    [fcd_exe] adds the server legs against a real fcd child:
    - [fcd-kill-restart]: SIGKILL under two seeded requests
      mid-stream; the in-flight request surfaces as a transport
      failure (never a wrong answer), the retry against a restarted
      daemon on the same socket and disk store succeeds, and every
      final response is byte-identical to a cold in-process batch run;
    - [oversized-frame]: a hostile length prefix is refused before
      allocation and poisons its stream; a torn frame and well-framed
      garbage each cost only themselves;
    - [slow-loris]: a sender that stalls mid-frame is poisoned by the
      daemon's read timeout, never parks it;
    - [sigstop-deadline]: a SIGSTOP'd daemon surfaces as a client
      transport failure (deadline fires); after SIGCONT the retry
      policy succeeds byte-identically;
    - [kill-under-load]: past the pending budget a request is shed
      with a fast busy frame and retried to success once the load
      drains; a SIGKILL mid-stream is retried through a restart.

    In every server leg the daemon must exit 0 at the end: no
    contained connection failure may leak into its exit status. *)

val print_report : Format.formatter -> report -> unit
