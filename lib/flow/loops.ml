(* Natural-loop detection over a {!Graph.t}. Back edges are collected
   per header in a hash table, scanning the reached nodes by ascending
   number; every other retreating edge makes the graph irreducible.
   The loop of a header is the header plus every node that reaches one
   of its back-edge sources backwards without passing the header. *)

exception Irreducible of int * int

type loop = {
  l_header : int;
  l_body : int list;
  l_back_srcs : int list;
  l_entry_preds : int list;
}

let compute (g : Graph.t) (dom : Dom.t) : loop list =
  let size = Array.length g.Graph.pos in
  let back = Hashtbl.create 17 in (* header -> back-edge sources *)
  for n = 0 to size - 1 do
    if g.Graph.pos.(n) >= 0 then
      List.iter
        (fun s ->
           if Dom.dominates dom s n then
             Hashtbl.replace back s
               (n :: Option.value ~default:[] (Hashtbl.find_opt back s))
           else if g.Graph.pos.(s) <= g.Graph.pos.(n) then
             raise (Irreducible (n, s)))
        g.Graph.succs.(n)
  done;
  Hashtbl.fold
    (fun header srcs acc ->
       let in_loop = Array.make size false in
       in_loop.(header) <- true;
       let rec pull (b : int) : unit =
         if not in_loop.(b) then begin
           in_loop.(b) <- true;
           List.iter pull g.Graph.preds.(b)
         end
       in
       List.iter pull srcs;
       { l_header = header;
         l_body = List.filter (Array.get in_loop) (List.init size Fun.id);
         l_back_srcs = List.sort_uniq compare srcs;
         l_entry_preds =
           List.sort_uniq compare
             (List.filter (fun p -> not in_loop.(p)) g.Graph.preds.(header)) }
       :: acc)
    back []
