(** Ferdinand-style must-cache abstract interpretation for the data
    cache: upper bounds on LRU ages per line; bounded age proves
    ALWAYS-HIT. Joins intersect with maximal ages; imprecise accesses
    age every line of the sets they may touch. Refines the capacity
    classification of {!Cacheanalysis} via {!Cacheanalysis.refine}. *)

type acache

val empty : acache
val join : acache -> acache -> acache
val access_line : acache -> int -> acache
val must_hit : acache -> int -> bool

type result

val analyze :
  ?fuel:int -> Cfg.t -> Valueanalysis.result -> Target.Layout.t -> result
(** [fuel] bounds the worklist steps, one per processed block (default
    [Fuel.default.fl_widen]).
    @raise Fuel.Exhausted when the budget runs out. *)

val block_hits : result -> int -> bool list
(** One boolean per data access of the block, in order: true when the
    access is guaranteed to hit. *)

(** {2 For tests} *)

val problem : result -> acache Flow.Worklist.problem
(** The equations {!analyze} solves: the entry state, the transfer over
    a block's classified accesses, the must-join. *)

val entry_states : result -> acache option array
(** By block; [None] for blocks not reached. *)
