(* The one graph below the compiler's RTL and the analyzer's
   reconstructed CFG: one depth-first search from the entry numbers the
   reached nodes in reverse postorder, and the predecessor lists are
   derived from that numbering. The search takes the successors in list
   order; GVN's fixpoint depends on the resulting order (its transfer
   is not monotone), so it is part of the compiler's output. *)

type t = {
  entry : int;
  order : int array;
  pos : int array;
  succs : int list array;
  preds : int list array;
}

let make ~(size : int) ~(entry : int) (succ : int -> int list) : t =
  let succs = Array.make size [] and visited = Array.make size false in
  let post = ref [] in
  let rec dfs (n : int) : unit =
    if not visited.(n) then begin
      visited.(n) <- true;
      succs.(n) <- succ n;
      List.iter dfs succs.(n);
      post := n :: !post
    end
  in
  dfs entry;
  let order = Array.of_list !post in
  let pos = Array.make size (-1) in
  Array.iteri (fun i n -> pos.(n) <- i) order;
  let preds = Array.make size [] in
  for i = Array.length order - 1 downto 0 do
    List.iter (fun s -> preds.(s) <- order.(i) :: preds.(s)) succs.(order.(i))
  done;
  { entry; order; pos; succs; preds }
