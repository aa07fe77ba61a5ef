module Tree = Xnav_xml.Tree
module Tag = Xnav_xml.Tag
module Ordpath = Xnav_xml.Ordpath
module Axis = Xnav_xml.Axis
module Path = Xnav_xpath.Path

type t = {
  (* The summary trie. Arrays grow by doubling; [size] classes are in
     use. A class's parent always has a smaller id. *)
  mutable size : int;
  mutable parents : int array;  (* class id -> parent class, -1 for the root *)
  mutable tags : Tag.t array;  (* class id -> the members' own tag *)
  children : (int * Tag.t, int) Hashtbl.t;  (* (parent class or -1, tag) -> class *)
  (* Entry lists, live under updates: a class's member count is its
     list's length. An update swaps in a fresh list rather than editing
     one in place, because a running XIndex keeps the lists it read. *)
  mutable entries : Node_id.t array array;  (* class id -> ids sorted by (cluster, slot) *)
  mutable labels : Ordpath.t array array;  (* aligned with [entries] *)
  mutable lookup : lookup option;  (* NodeID -> class, built on first use *)
  (* [walk]'s per-class masks, sized with the trie and kept between
     calls so a walk allocates only its results. *)
  mutable ends : int array;
  mutable below : int array;
}

(* [pages.(pid - first).(slot)] is the class of the entry at (pid, slot),
   -1 where no entry lies. Private to the partition, so updates edit it
   in place. *)
and lookup = { mutable first : int; mutable pages : int array array }

let empty () =
  {
    size = 0;
    parents = [||];
    tags = [||];
    children = Hashtbl.create 64;
    entries = [||];
    labels = [||];
    lookup = None;
    ends = [||];
    below = [||];
  }

let append t parent tag =
  let c = t.size in
  if c = Array.length t.parents then begin
    let grow a fill =
      let b = Array.make (max 16 (2 * c)) fill in
      Array.blit a 0 b 0 c;
      b
    in
    t.parents <- grow t.parents (-1);
    t.tags <- grow t.tags tag;
    t.entries <- grow t.entries [||];
    t.labels <- grow t.labels [||];
    t.ends <- grow t.ends 0;
    t.below <- grow t.below 0
  end;
  t.parents.(c) <- parent;
  t.tags.(c) <- tag;
  Hashtbl.add t.children (parent, tag) c;
  t.size <- c + 1;
  c

let child t parent tag =
  match Hashtbl.find_opt t.children (parent, tag) with
  | Some c -> c
  | None -> append t parent tag

let intern t seq = Array.fold_left (child t) (-1) seq

let set_entries t ~entries ~labels =
  Array.blit entries 0 t.entries 0 (Array.length entries);
  Array.blit labels 0 t.labels 0 (Array.length labels)

let build doc ~node_ids ~ordpaths =
  if Array.length node_ids <> Array.length ordpaths then
    invalid_arg "Path_partition.build: node/ordpath arrays disagree";
  let t = empty () in
  let class_of = Array.make (Array.length node_ids) 0 in
  let rec go parent (node : Tree.t) =
    let c = child t parent node.Tree.tag in
    class_of.(node.Tree.preorder) <- c;
    Array.iter (go c) node.Tree.children
  in
  go (-1) doc;
  let buckets = Array.make t.size [] in
  (* Walk preorder backwards so each bucket comes out in document order;
     the sort below then mostly sees already-ordered runs. *)
  for p = Array.length class_of - 1 downto 0 do
    let c = class_of.(p) in
    buckets.(c) <- (node_ids.(p), ordpaths.(p)) :: buckets.(c)
  done;
  let sorted =
    Array.map
      (fun pairs ->
        let a = Array.of_list pairs in
        Array.sort (fun (x, _) (y, _) -> Node_id.compare x y) a;
        a)
      buckets
  in
  set_entries t
    ~entries:(Array.map (Array.map fst) sorted)
    ~labels:(Array.map (Array.map snd) sorted);
  t

let make ~sequences ~entries ~labels =
  let n = Array.length sequences in
  if Array.length entries <> n || Array.length labels <> n then
    invalid_arg "Path_partition.make: class arrays disagree";
  let t = empty () in
  Array.iteri
    (fun c seq ->
      if Array.length seq = 0 || intern t seq <> c || t.size <> c + 1 then
        invalid_arg "Path_partition.make: sequences are not a summary in first-occurrence order";
      if Array.length entries.(c) <> Array.length labels.(c) then
        invalid_arg "Path_partition.make: entries and labels disagree")
    sequences;
  set_entries t ~entries ~labels;
  t

let class_count t = t.size
let class_sequence t c =
  let rec up c acc = if c < 0 then Array.of_list acc else up t.parents.(c) (t.tags.(c) :: acc) in
  up c []

let class_tag t c = t.tags.(c)

let class_parent t c = t.parents.(c)
let class_entries t c = t.entries.(c)
let class_labels t c = t.labels.(c)

let build_lookup t =
  let lo = ref max_int and hi = ref (-1) in
  for c = 0 to t.size - 1 do
    Array.iter
      (fun (id : Node_id.t) ->
        lo := min !lo id.Node_id.pid;
        hi := max !hi id.Node_id.pid)
      t.entries.(c)
  done;
  if !hi < 0 then { first = 0; pages = [||] }
  else begin
    let first = !lo in
    let width = Array.make (!hi - first + 1) 0 in
    for c = 0 to t.size - 1 do
      Array.iter
        (fun (id : Node_id.t) ->
          let p = id.Node_id.pid - first in
          width.(p) <- max width.(p) (id.Node_id.slot + 1))
        t.entries.(c)
    done;
    let pages = Array.map (fun w -> Array.make w (-1)) width in
    for c = 0 to t.size - 1 do
      Array.iter
        (fun (id : Node_id.t) -> pages.(id.Node_id.pid - first).(id.Node_id.slot) <- c)
        t.entries.(c)
    done;
    { first; pages }
  end

let built_lookup t =
  match t.lookup with
  | Some l -> l
  | None ->
    let l = build_lookup t in
    t.lookup <- Some l;
    l

let class_at t ~pid ~slot =
  let { first; pages } = built_lookup t in
  let p = pid - first in
  if p < 0 || p >= Array.length pages then -1
  else
    let page = pages.(p) in
    if slot < 0 || slot >= Array.length page then -1 else page.(slot)

(* Record [c] as the class at [id] in a built lookup, widening it to
   cover the id's page (pages appended after import) and slot. *)
let set_class t (id : Node_id.t) c =
  match t.lookup with
  | None -> ()
  | Some l ->
    let pid = id.Node_id.pid and slot = id.Node_id.slot in
    if Array.length l.pages = 0 then l.first <- pid;
    let n = Array.length l.pages in
    if pid < l.first || pid >= l.first + n then begin
      let first = min pid l.first in
      let pages = Array.make (max (pid + 1) (l.first + n) - first) [||] in
      Array.blit l.pages 0 pages (l.first - first) n;
      l.first <- first;
      l.pages <- pages
    end;
    let p = pid - l.first in
    let page = l.pages.(p) in
    if slot >= Array.length page then begin
      let wider = Array.make (slot + 1) (-1) in
      Array.blit page 0 wider 0 (Array.length page);
      l.pages.(p) <- wider
    end;
    l.pages.(p).(slot) <- c

(* The position of the first entry of [ids] not below [id]. *)
let search ids id =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Node_id.compare ids.(mid) id < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let insert_at a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let remove_at a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let add t c id label =
  let i = search t.entries.(c) id in
  t.entries.(c) <- insert_at t.entries.(c) i id;
  t.labels.(c) <- insert_at t.labels.(c) i label;
  set_class t id c

let remove t c id =
  let ids = t.entries.(c) in
  let i = search ids id in
  if i >= Array.length ids || not (Node_id.equal ids.(i) id) then
    invalid_arg "Path_partition.remove: the id is no entry of the class";
  t.entries.(c) <- remove_at ids i;
  t.labels.(c) <- remove_at t.labels.(c) i;
  set_class t id (-1)

(* --- cardinality walk ----------------------------------------------------------- *)

let max_steps = Sys.int_size - 2

(* One pass over the classes in id order, parents first. Class [c]
   carries two masks over prefix lengths [0 .. n]: bit [i] of [ends.(c)]
   is set iff the path's first [i] steps select the nodes of [c]; bit
   [i] of [below.(c)] iff they select an ancestor-or-self of them. Both
   follow from the parent's masks and the class's own tag, so each
   class's count lands in every step it completes. Returns the counts
   and, as bit [j] for step [j + 1], the [child] steps and the
   [descendant] / [descendant-or-self] steps. *)
let fill t path =
  let steps = Array.of_list path in
  let n = Array.length steps in
  if n > max_steps then invalid_arg "Path_partition: path too long";
  (* Bit [j] of [from_ends] / [from_below]: step [j + 1] continues from
     the parent's [ends] ([child]) / [below] ([descendant]). [stay]
     lists the [self] / [descendant-or-self] steps, which continue from
     the class's own bits and so are applied in step order. *)
  let from_ends = ref 0 and from_below = ref 0 and dos = ref 0 and stay = ref [] in
  for j = n - 1 downto 0 do
    match steps.(j).Path.axis with
    | Axis.Child -> from_ends := !from_ends lor (1 lsl j)
    | Axis.Descendant -> from_below := !from_below lor (1 lsl j)
    | Axis.Self -> stay := (j + 1, true) :: !stay
    | Axis.Descendant_or_self ->
      dos := !dos lor (1 lsl j);
      stay := (j + 1, false) :: !stay
    | _ -> ()
  done;
  let from_ends = !from_ends and from_below = !from_below in
  let stay_step = Array.of_list (List.map fst !stay)
  and stay_self = Array.of_list (List.map snd !stay) in
  (* Bit [i] of a tag's mask: step [i]'s node test accepts the tag. *)
  let tag_masks = Array.make (Tag.count ()) (-1) in
  let tag_mask tag =
    let id = Tag.id tag in
    if tag_masks.(id) < 0 then begin
      let m = ref 0 in
      Array.iteri
        (fun j (step : Path.step) ->
          if Path.matches step.Path.test tag then m := !m lor (1 lsl (j + 1)))
        steps;
      tag_masks.(id) <- !m
    end;
    tag_masks.(id)
  in
  let counts = Array.make n 0 in
  let ends = t.ends and below = t.below in
  for c = 0 to t.size - 1 do
    let p = t.parents.(c) in
    let p_below = if p < 0 then 0 else below.(p) in
    let m = tag_mask t.tags.(c) in
    (* Prefix 0 (the context, the document root) ends at the root class. *)
    let e =
      ref
        (if p < 0 then 1
         else ((ends.(p) land from_ends) lor (p_below land from_below)) lsl 1 land m)
    in
    for k = 0 to Array.length stay_step - 1 do
      let i = stay_step.(k) in
      let from = if stay_self.(k) then !e else p_below lor !e in
      if from land (1 lsl (i - 1)) <> 0 && m land (1 lsl i) <> 0 then e := !e lor (1 lsl i)
    done;
    ends.(c) <- !e;
    below.(c) <- p_below lor !e;
    let rest = ref (!e lsr 1) and i = ref 0 in
    while !rest <> 0 do
      if !rest land 1 <> 0 then counts.(!i) <- counts.(!i) + Array.length t.entries.(c);
      rest := !rest lsr 1;
      incr i
    done
  done;
  (counts, from_ends, from_below lor !dos)

let walk t path ~select =
  let counts, _, _ = fill t path in
  let selected = ref [] in
  for c = t.size - 1 downto 0 do
    if t.ends.(c) land (1 lsl select) <> 0 then selected := c :: !selected
  done;
  (counts, !selected)

let seed_masks t path =
  let _, child, descendant = fill t path in
  Array.init t.size (fun c -> (t.ends.(c) land child) lor (t.below.(c) land descendant))

let step_counts t path = fst (walk t path ~select:0)

let equal a b =
  let same eq x y = Array.length x = Array.length y && Array.for_all2 eq x y in
  let rec from c =
    c >= a.size
    || a.parents.(c) = b.parents.(c)
       && Tag.equal a.tags.(c) b.tags.(c)
       && same Node_id.equal a.entries.(c) b.entries.(c)
       && same Ordpath.equal a.labels.(c) b.labels.(c)
       && from (c + 1)
  in
  a.size = b.size && from 0
