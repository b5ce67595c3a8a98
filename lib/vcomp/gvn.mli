(** Global CSE by value numbering over the whole RTL CFG (Monniaux &
    Six style): pure operations whose hash-consed symbolic term is
    already held by another register become moves; operations whose
    destination already holds the term become no-ops. Loads are left to
    the local, epoch-aware [Cse]. The fixpoint runs under a fuel
    budget; exhaustion skips the function — the pass never rewrites
    from an unconverged analysis. *)

val transform_func : fuel:int -> Rtl.func -> unit
(** In place. *)

val transform : ?fuel:int -> Rtl.program -> Rtl.program
(** [fuel] (default 200_000) is a per-function budget of solver steps
    ({!Flow.Worklist.forward}). The solver steps the lowest pending node in
    reverse postorder, which takes fewer steps than the FIFO worklist
    it replaced, so a starved budget (the [#N] of a [--passes] spec)
    can now converge, and rewrite, where it used to skip the function. *)

(** {2 The analysis, for tests} *)

type tables
(** Hash-consed terms of one function, with the reverse index of the
    nodes they mention. *)

val create_tables : unit -> tables

type env = int Ptmap.t
(** Register -> term id; absent = unknown. *)

val problem :
  ?invalidate:(tables -> Rtl.node -> env -> env) ->
  tables -> Rtl.func -> env Flow.Worklist.problem
(** The parameters' entry terms, the transfer function and the meet
    (bindings on which both sides agree). [invalidate] defaults to
    {!invalidate}. *)

val analyze :
  ?invalidate:(tables -> Rtl.node -> env -> env) ->
  tables -> Rtl.func -> fuel:int -> env Flow.Worklist.solution option
(** In-environments at the fixpoint, [None] on fuel exhaustion. *)

val mentions : tables -> Rtl.node -> bool
(** Does some term created so far mention the node? *)

val invalidate : tables -> Rtl.node -> env -> env
(** Drops the bindings whose term mentions the node; the environment
    itself, untouched, when no term does. *)

val invalidate_naive : tables -> Rtl.node -> env -> env
(** The whole-environment filter: the oracle {!invalidate} must match. *)
