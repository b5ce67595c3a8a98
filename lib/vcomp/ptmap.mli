(** Persistent maps over non-negative int keys (Patricia trees). Each
    operation returns a physically shared subtree wherever the result
    equals it, and {!inter} and {!equal} return early on shared
    subtrees, so meeting or comparing two mostly-shared maps costs what
    differs. Iteration is in ascending key order. *)

type 'a t

val empty : 'a t
val find_opt : int -> 'a t -> 'a option

val add : int -> 'a -> 'a t -> 'a t
(** The map itself when it already binds the key to a physically
    equal value. *)

val remove : int -> 'a t -> 'a t

val filter : (int -> 'a -> bool) -> 'a t -> 'a t
(** The map itself when the predicate keeps every binding. *)

val inter : ('a -> 'a -> bool) -> 'a t -> 'a t -> 'a t
(** [inter eq a b]: the bindings of [a] that [b] binds, under the same
    key, to an [eq] value. [inter eq a a == a]. *)

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val cardinal : 'a t -> int
