(** Liveness analysis over RTL: backward dataflow computing, per node,
    the pseudo-registers live after the instruction, as a bit row
    indexed by register number. The one analysis behind dead-code
    elimination, LICM, the interference graph and the allocator's
    independent check. *)

type t

val analyze : Rtl.func -> t

val live_after : t -> Rtl.node -> Bitrow.t
(** The node's live-after row (read-only); empty for nodes created
    after the analysis ran. *)

val mem_after : t -> Rtl.node -> Rtl.reg -> bool

val mem_before : t -> Rtl.instruction -> Rtl.node -> Rtl.reg -> bool
(** [mem_before lv i n r]: is [r] live before node [n] when [n] holds
    instruction [i]? *)

(** {2 For tests} *)

val solve : ?fuel:int -> Rtl.func -> t option
(** {!analyze} where each worklist step costs one unit of [fuel];
    [None] when it runs out first. *)

module RegSet : Set.S with type elt = int

type naive

val analyze_naive : Rtl.func -> naive
(** Global set-based fixpoint without a worklist; property tests
    compare it with {!analyze}. *)

val naive_after : naive -> Rtl.node -> RegSet.t
