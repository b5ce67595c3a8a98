(* The one forward dataflow solver of the middle end (Kildall's
   worklist algorithm, as in CompCert's Kildall module), shared by
   constant propagation and GVN.

   Nodes are numbered once by their reverse-postorder (RPO) position,
   and the predecessor lists are derived from that numbering. The
   worklist is a row of pending flags over positions, and each step
   takes the lowest pending one, so a node is never stepped while one
   of its forward (non-back-edge) predecessors is still pending, and on
   an acyclic graph every node is stepped exactly once. A step
   recomputes the node's in-value as the join of the out-values of its
   reached predecessors (the entry's in-value is fixed); when that
   changes, the node's out-value is recomputed once and its successors
   become pending. Every reachable node starts pending, so each is
   stepped at least once, and its RPO parent is stepped before it: the
   join is never empty.

   [forward_naive], which repeats full RPO sweeps until nothing
   changes, is the test oracle. *)

type 'a problem = {
  entry : 'a;
  transfer : Rtl.node -> 'a -> 'a;
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
}

type 'a solution = 'a option array

let rpo_graph (f : Rtl.func) : Rtl.node array * int list array * int list array =
  let order = Array.of_list (Rtl.reverse_postorder f) in
  let pos = Array.make f.Rtl.f_next_node (-1) in
  Array.iteri (fun i n -> pos.(n) <- i) order;
  let succs =
    Array.map
      (fun n -> List.map (fun s -> pos.(s)) (Rtl.successors (Rtl.get_instr f n)))
      order
  in
  let preds = Array.make (Array.length order) [] in
  for i = Array.length order - 1 downto 0 do
    List.iter (fun j -> preds.(j) <- i :: preds.(j)) succs.(i)
  done;
  (order, succs, preds)

let join_reached (pb : 'a problem) (out : int -> 'a option) (ps : int list) : 'a =
  match List.filter_map out ps with
  | v :: vs -> List.fold_left pb.join v vs
  | [] -> invalid_arg "Dataflow: node stepped before its RPO parent"

let solution (f : Rtl.func) (order : Rtl.node array) (ins : 'a option array) :
  'a solution =
  let sol = Array.make f.Rtl.f_next_node None in
  Array.iteri (fun i n -> sol.(n) <- ins.(i)) order;
  sol

let forward ?fuel (f : Rtl.func) (pb : 'a problem) : 'a solution option =
  let order, succs, preds = rpo_graph f in
  let len = Array.length order in
  let ins = Array.make len None and outs = Array.make len None in
  let pending = Array.make len true in
  let fuel = ref (Option.value ~default:max_int fuel) in
  (* no position below [low] is pending *)
  let rec run low =
    if low >= len then true
    else if not pending.(low) then run (low + 1)
    else if !fuel <= 0 then false
    else begin
      decr fuel;
      pending.(low) <- false;
      let v =
        if low = 0 then pb.entry else join_reached pb (Array.get outs) preds.(low)
      in
      match ins.(low) with
      | Some old when pb.equal old v -> run (low + 1)
      | Some _ | None ->
        ins.(low) <- Some v;
        outs.(low) <- Some (pb.transfer order.(low) v);
        List.iter (fun s -> pending.(s) <- true) succs.(low);
        run (List.fold_left min (low + 1) succs.(low))
    end
  in
  if run 0 then Some (solution f order ins) else None

let forward_naive (f : Rtl.func) (pb : 'a problem) : 'a solution =
  let order, _, preds = rpo_graph f in
  let ins = Array.make (Array.length order) None in
  let out p = Option.map (pb.transfer order.(p)) ins.(p) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i _ ->
         let v =
           if i = 0 then pb.entry else join_reached pb out preds.(i)
         in
         match ins.(i) with
         | Some old when pb.equal old v -> ()
         | Some _ | None ->
           ins.(i) <- Some v;
           changed := true)
      order
  done;
  solution f order ins
