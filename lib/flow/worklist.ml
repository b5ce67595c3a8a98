(* The one worklist (Kildall's algorithm, as in CompCert's Kildall
   module, with RPO priorities). Pending nodes are flags over RPO
   positions and a cursor below (forward) or above (backward) which
   nothing is pending, so the next step is the first pending position
   from the cursor on, and a push that lands before the cursor moves
   it back.

   The forward solver recomputes a node's in-value as the join of its
   reached predecessors' out-values (the entry's in-value is fixed);
   when that changes, the out-value is recomputed once and the
   successors become pending. Every reached node starts pending, so
   each is stepped at least once, and after its RPO parent: the join
   is never empty. *)

type t = {
  graph : Graph.t;
  pending : bool array; (* by RPO position *)
  dir : int; (* +1: lowest position first; -1: highest first *)
  mutable next : int; (* nothing pending before it in stepping order *)
}

let create ?(backward = false) (g : Graph.t) : t =
  let len = Array.length g.Graph.order in
  { graph = g;
    pending = Array.make len false;
    dir = (if backward then -1 else 1);
    next = (if backward then -1 else len) }

let push (w : t) (n : int) : unit =
  let p = w.graph.Graph.pos.(n) in
  w.pending.(p) <- true;
  if (p - w.next) * w.dir < 0 then w.next <- p

let push_all (w : t) : unit =
  let len = Array.length w.pending in
  Array.fill w.pending 0 len true;
  w.next <- (if w.dir > 0 then 0 else len - 1)

let run ?(fuel = max_int) (w : t) (step : int -> unit) : bool =
  let fuel = ref fuel in
  let rec go () =
    let p = w.next in
    if p < 0 || p >= Array.length w.pending then true
    else if not w.pending.(p) then begin
      w.next <- p + w.dir;
      go ()
    end
    else if !fuel <= 0 then false
    else begin
      decr fuel;
      w.pending.(p) <- false;
      w.next <- p + w.dir;
      step w.graph.Graph.order.(p);
      go ()
    end
  in
  go ()

type 'a problem = {
  entry : 'a;
  transfer : int -> 'a -> 'a;
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
}

type 'a solution = 'a option array

let join_reached (pb : 'a problem) (out : int -> 'a option) (ps : int list) :
  'a =
  match List.filter_map out ps with
  | v :: vs -> List.fold_left pb.join v vs
  | [] -> invalid_arg "Worklist: node stepped before its RPO parent"

let forward ?fuel (g : Graph.t) (pb : 'a problem) : 'a solution option =
  let size = Array.length g.Graph.pos in
  let ins = Array.make size None and outs = Array.make size None in
  let w = create g in
  push_all w;
  let step n =
    let v =
      if n = g.Graph.entry then pb.entry
      else join_reached pb (Array.get outs) g.Graph.preds.(n)
    in
    match ins.(n) with
    | Some old when pb.equal old v -> ()
    | Some _ | None ->
      ins.(n) <- Some v;
      outs.(n) <- Some (pb.transfer n v);
      List.iter (push w) g.Graph.succs.(n)
  in
  if run ?fuel w step then Some ins else None

let forward_naive (g : Graph.t) (pb : 'a problem) : 'a solution =
  let ins = Array.make (Array.length g.Graph.pos) None in
  let out p = Option.map (pb.transfer p) ins.(p) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun n ->
         let v =
           if n = g.Graph.entry then pb.entry
           else join_reached pb out g.Graph.preds.(n)
         in
         match ins.(n) with
         | Some old when pb.equal old v -> ()
         | Some _ | None ->
           ins.(n) <- Some v;
           changed := true)
      g.Graph.order
  done;
  ins
