(* Persistent maps over non-negative int keys as big-endian Patricia
   trees (Okasaki & Gill, "Fast Mergeable Integer Maps"). A key set has
   exactly one tree shape, so two maps are equal iff their trees are,
   and every operation that leaves a subtree unchanged returns that
   subtree itself: [add] of a binding already present, a [filter] that
   keeps everything, and [inter] or [equal] on physically shared
   subtrees all cost what differs, not the size of the map. The
   dataflow environments of the middle end live here, where a meet or a
   comparison of two mostly-shared environments is the common step. *)

type 'a t =
  | Empty
  | Leaf of int * 'a
  | Branch of int * int * 'a t * 'a t
  (* prefix, branching bit, subtree with the bit clear, with it set;
     neither subtree is empty *)

let empty = Empty

let zero_bit k m = k land m = 0
let mask k m = k land lnot (m lor (m - 1))
let matches k p m = mask k m = p

let rec highest_bit x =
  let y = x land (x - 1) in
  if y = 0 then x else highest_bit y

let join p0 t0 p1 t1 =
  let m = highest_bit (p0 lxor p1) in
  if zero_bit p0 m then Branch (mask p0 m, m, t0, t1)
  else Branch (mask p0 m, m, t1, t0)

let branch p m l r =
  match l, r with
  | Empty, t | t, Empty -> t
  | _, _ -> Branch (p, m, l, r)

let rec find_opt k t =
  match t with
  | Empty -> None
  | Leaf (j, v) -> if j = k then Some v else None
  | Branch (_, m, l, r) -> find_opt k (if zero_bit k m then l else r)

let rec add k v t =
  match t with
  | Empty -> Leaf (k, v)
  | Leaf (j, w) ->
    if j <> k then join k (Leaf (k, v)) j t else if w == v then t
    else Leaf (k, v)
  | Branch (p, m, l, r) ->
    if not (matches k p m) then join k (Leaf (k, v)) p t
    else if zero_bit k m then
      let l' = add k v l in
      if l' == l then t else Branch (p, m, l', r)
    else
      let r' = add k v r in
      if r' == r then t else Branch (p, m, l, r')

let rec remove k t =
  match t with
  | Empty -> Empty
  | Leaf (j, _) -> if j = k then Empty else t
  | Branch (p, m, l, r) ->
    if not (matches k p m) then t
    else if zero_bit k m then
      let l' = remove k l in
      if l' == l then t else branch p m l' r
    else
      let r' = remove k r in
      if r' == r then t else branch p m l r'

let rec filter f t =
  match t with
  | Empty -> Empty
  | Leaf (k, v) -> if f k v then t else Empty
  | Branch (p, m, l, r) ->
    let l' = filter f l and r' = filter f r in
    if l' == l && r' == r then t else branch p m l' r'

(* The bindings of [a] whose key [b] binds to an [eq] value. *)
let rec inter eq a b =
  if a == b then a
  else
    match a, b with
    | Empty, _ | _, Empty -> Empty
    | Leaf (k, v), _ ->
      (match find_opt k b with Some w when eq v w -> a | _ -> Empty)
    | _, Leaf (k, w) ->
      (match find_opt k a with Some v when eq v w -> Leaf (k, v) | _ -> Empty)
    | Branch (p, m, l, r), Branch (q, n, l', r') ->
      if m = n && p = q then
        let l'' = inter eq l l' and r'' = inter eq r r' in
        if l'' == l && r'' == r then a else branch p m l'' r''
      else if m > n && matches q p m then
        inter eq (if zero_bit q m then l else r) b
      else if m < n && matches p q n then
        inter eq a (if zero_bit p n then l' else r')
      else Empty

let rec equal eq a b =
  a == b
  ||
  match a, b with
  | Leaf (j, v), Leaf (k, w) -> j = k && eq v w
  | Branch (p, m, l, r), Branch (q, n, l', r') ->
    p = q && m = n && equal eq l l' && equal eq r r'
  | (Empty | Leaf _ | Branch _), _ -> false

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf (k, v) -> f k v acc
  | Branch (_, _, l, r) -> fold f r (fold f l acc)

let cardinal t = fold (fun _ _ n -> n + 1) t 0
