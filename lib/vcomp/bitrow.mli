(** Dense mutable sets of small non-negative integers as bit rows,
    indexed by pseudo-register number in the back end. Every iteration
    is in ascending element order. *)

type t

val create : int -> t
(** [create n] is the empty row able to hold [0 .. n - 1]. *)

val copy : t -> t
val assign : dst:t -> t -> unit
(** [dst := src] (same capacity). *)

val mem : t -> int -> bool
(** Elements beyond the row's capacity are absent. *)

val add : t -> int -> unit
val remove : t -> int -> unit

val union_into : dst:t -> t -> bool
(** [dst := dst ∪ src] (same capacity); true when [dst] changed. *)

val iter : (int -> unit) -> t -> unit
val iter_union : (int -> unit) -> t -> t -> unit
(** Iterate [a ∪ b] (same capacity) without building it. *)

val cardinal : t -> int
val elements : t -> int list
