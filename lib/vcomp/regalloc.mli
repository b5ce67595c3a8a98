(** Register allocation by graph coloring (Chaitin–Briggs with
    conservative move coalescing) — the optimization the paper singles
    out as CompCert's main gain over the pattern process. Integer and
    float pseudo-registers are colored separately against the EABI
    allocatable banks; uncolorable nodes spill to frame slots. The
    interference graph is a bit row per register, so the allocator's
    sets and counters are arrays over register numbers. *)

type loc =
  | Lireg of Target.Asm.ireg
  | Lfreg of Target.Asm.freg
  | Lslot of int  (** index of an 8-byte spill slot in the frame *)

type allocation = loc option array
(** Indexed by pseudo-register; [None] for numbers the function never
    mentions. *)

val loc_equal : loc -> loc -> bool

type graph

val build_graph : Rtl.func -> graph

val registers : graph -> Rtl.reg list
(** The registers the function mentions, ascending. *)

val neighbours : graph -> Rtl.reg -> Rtl.reg list
(** Interfering registers (always of the same class), ascending. *)

type result = {
  ra_alloc : allocation;
  ra_nslots : int;
  ra_graph : graph;
}

val allocate : Rtl.func -> result
val location : result -> Rtl.reg -> loc

val verify : Rtl.func -> result -> (unit, string) Result.t
(** Independent structural validator: recomputes liveness and checks
    that no two simultaneously-live pseudo-registers share a location.
    Rejects deliberately corrupted allocations (mutation-tested). *)
