(* Dominators by the Cooper–Harvey–Kennedy iterative algorithm: sweep
   the reached nodes in RPO, setting each one's immediate dominator to
   the intersection of its processed predecessors' dominator-tree
   paths, until nothing changes. *)

type t = {
  d_idom : int array;
  d_rpo_index : int array;
}

let compute (g : Graph.t) : t =
  let pos = g.Graph.pos in
  let idom = Array.make (Array.length pos) (-1) in
  idom.(g.Graph.entry) <- g.Graph.entry;
  let rec intersect (a : int) (b : int) : int =
    if a = b then a
    else if pos.(a) > pos.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
         if b <> g.Graph.entry then
           match List.filter (fun p -> idom.(p) <> -1) g.Graph.preds.(b) with
           | [] -> ()
           | first :: rest ->
             let d = List.fold_left intersect first rest in
             if idom.(b) <> d then begin
               idom.(b) <- d;
               changed := true
             end)
      g.Graph.order
  done;
  { d_idom = idom; d_rpo_index = pos }

let dominates (d : t) (a : int) (b : int) : bool =
  let rec up (x : int) : bool =
    if x = a then true
    else if x = -1 || d.d_idom.(x) = x then false
    else up d.d_idom.(x)
  in
  up b

let dominates_naive (g : Graph.t) : int -> int -> bool =
  let reached_without (removed : int) : bool array =
    let seen = Array.make (Array.length g.Graph.pos) false in
    let rec dfs (x : int) : unit =
      if (not seen.(x)) && x <> removed then begin
        seen.(x) <- true;
        List.iter dfs g.Graph.succs.(x)
      end
    in
    dfs g.Graph.entry;
    seen
  in
  let reached = reached_without (-1) in
  fun a ->
    let without_a = reached_without a in
    fun b -> a = b || (reached.(b) && not without_a.(b))
