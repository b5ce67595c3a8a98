(** Control-flow reconstruction from binary-level assembly — the decode
    phase of the aiT-style analyzer. Blocks split at labels and after
    branches; edges carry the branch direction the pipeline analysis
    charges per edge. *)

type edge_kind =
  | Etaken
  | Efall

type block = {
  b_id : int;
  b_instrs : Target.Asm.instr array; (** without the leading label *)
  b_addr : int;
  b_size : int;                      (** bytes *)
  b_succs : (int * edge_kind) list;
  b_is_exit : bool;                  (** ends in blr *)
}

type t = {
  c_blocks : block array;
  c_entry : int;
  c_fname : string;
  c_graph : Flow.Graph.t;
      (** the blocks reached from the entry in reverse postorder, with
          their predecessors; successors in [b_succs] order *)
}

exception Decode_error of string

val build : string -> int -> Target.Asm.instr list -> t
(** [build fname base_addr code].
    @raise Decode_error on undefined labels or empty functions. *)

val block : t -> int -> block
val num_blocks : t -> int
val successors : t -> int -> (int * edge_kind) list
val pp : Format.formatter -> t -> unit
