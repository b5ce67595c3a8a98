(** Constant propagation over RTL: forward dataflow on the flat value
    lattice followed by rewriting. Folding reuses the dynamic semantics
    ({!Rtl_interp.eval_operation}), so folded operations are correct by
    construction; constant conditions become jumps; annotation
    arguments that became constants are rewritten, which is how
    constants reach the emitted annotation comments. *)

val transform_func : Rtl.func -> unit
(** In place. *)

val transform : Rtl.program -> Rtl.program

(** {2 The analysis, for tests} *)

type aenv
(** The registers known to hold a constant; absent registers are Top. *)

val problem : Rtl.func -> aenv Flow.Worklist.problem
(** Empty entry environment, abstract evaluation as the transfer, and
    the join that drops the bindings on which two sides disagree. *)
