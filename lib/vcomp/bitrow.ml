(* Dense mutable sets of small non-negative integers, one bit per
   element packed into the words of an [int array]. The back end indexes
   them by pseudo-register number ([0 .. f_next_reg - 1]): a liveness
   row per node, an interference row per register. Iteration is always
   in ascending element order, so algorithms that walked a
   [Set.Make (Int)] make the same choices on a row. *)

type t = int array

let width = Sys.int_size

let create (capacity : int) : t = Array.make ((capacity + width - 1) / width) 0

let copy : t -> t = Array.copy

let assign ~(dst : t) (src : t) : unit =
  Array.blit src 0 dst 0 (Array.length src)

let mem (r : t) (i : int) : bool =
  let w = i / width in
  w < Array.length r && (r.(w) lsr (i mod width)) land 1 <> 0

let add (r : t) (i : int) : unit =
  let w = i / width in
  r.(w) <- r.(w) lor (1 lsl (i mod width))

let remove (r : t) (i : int) : unit =
  let w = i / width in
  r.(w) <- r.(w) land lnot (1 lsl (i mod width))

(* [dst := dst ∪ src] for rows of the same capacity; true when [dst]
   grew. *)
let union_into ~(dst : t) (src : t) : bool =
  let changed = ref false in
  for w = 0 to Array.length src - 1 do
    let old = dst.(w) in
    let nw = old lor src.(w) in
    if nw <> old then begin
      dst.(w) <- nw;
      changed := true
    end
  done;
  !changed

(* Calls [f] on every set bit of [word], lowest first, as [base + bit]. *)
let iter_word (f : int -> unit) (base : int) (word : int) : unit =
  let w = ref word and i = ref base in
  while !w <> 0 do
    if !w land 1 <> 0 then f !i;
    w := !w lsr 1;
    incr i
  done

let iter (f : int -> unit) (r : t) : unit =
  Array.iteri (fun w word -> if word <> 0 then iter_word f (w * width) word) r

(* Ascending iteration over [a ∪ b] without materializing it. *)
let iter_union (f : int -> unit) (a : t) (b : t) : unit =
  Array.iteri
    (fun w word ->
       let word = word lor b.(w) in
       if word <> 0 then iter_word f (w * width) word)
    a

let cardinal (r : t) : int =
  let n = ref 0 in
  iter (fun _ -> incr n) r;
  !n

let elements (r : t) : int list =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) r;
  List.rev !acc
