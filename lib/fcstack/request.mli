(** The typed request surface of the compilation service: one value
    carries source text, an action, and the request-scoped options
    ({!Toolchain.request_opts}) — session state (cache, jobs) cannot
    be expressed here by construction.

    Also the one home of the CLI name<->variant maps for compilers and
    engines ({!compiler_of_string} and friends), and
    [of_string (to_string c) = Ok c] is qcheck-pinned
    ([test/test_service.ml]). *)

type compiler = Toolchain.compiler =
  | Cdefault_o0
  | Cdefault_o1
  | Cdefault_o2
  | Cvcomp
(** Re-export of {!Toolchain.compiler} (same equation as {!Chain}). *)

val compiler_to_string : compiler -> string
(** Canonical CLI spelling: ["o0"]/["o1"]/["o2"]/["vcomp"]. *)

val compiler_of_string : string -> (compiler, string) Result.t
(** Parse the CLI spelling (also accepts the long [default-O*] names);
    round-trips with {!compiler_to_string}. *)

val engine_to_string : Wcet.Report.engine -> string
val engine_of_string : string -> (Wcet.Report.engine, string) Result.t
(** The engine name maps ({!Wcet.Report}'s, re-exported so the request
    surface is the single parsing entry point for CLIs). *)

type action =
  | Compile of {
      ac_dump_rtl : bool;  (** prepend the optimized RTL dump (vcomp) *)
    }
  | Analyze of {
      an_compare : bool;         (** all four configurations *)
      an_simulate : bool;        (** observed cycles next to the bound *)
      an_annot : string option;  (** annotation-file path (quoted in the
                                     report text, hence request data) *)
    }
  | Ping  (** liveness probe: answers with session stats, runs no
              toolchain work, consumes no request budget *)

type t = {
  rq_name : string;    (** node/file name diagnostics will carry *)
  rq_source : string;  (** mini-C source text (never a path: the daemon
                           stays out of the client's filesystem) *)
  rq_action : action;
  rq_opts : Toolchain.request_opts;
  rq_validate : bool;  (** whole-chain differential validation *)
  rq_exact : bool;     (** disable semantics-relaxing optimizations *)
  rq_deadline_ms : int option;
  (** wall-clock budget the server may spend before answering: past
      it, the request is refused with a [Deadline] diag — never a
      partial or unsound answer, never cached. Not part of
      {!Toolchain.request_opts} by design: a deadline says when an
      answer stops being useful, not what the answer is, so it stays
      out of every cache key. *)
}

val make :
  ?name:string -> ?action:action -> ?opts:Toolchain.request_opts ->
  ?validate:bool -> ?exact:bool -> ?deadline_ms:int -> string -> t
(** [make source]: defaults are a plain compile under
    {!Toolchain.default_request}, no deadline. *)

val to_wire : t -> string
(** Wire payload: one [k=v] header line, then the raw source bytes. *)

val of_wire : string -> (t, string) Result.t
(** Inverse of {!to_wire}: the decoded request equals the original
    (qcheck-pinned). [Error] on version/field/name problems. *)
