module Tag = Xnav_xml.Tag
module Ordpath = Xnav_xml.Ordpath

type t = {
  classes : Tag.t array array;  (* class id -> root-first tag sequence *)
  entries : Node_id.t array array;  (* class id -> ids sorted by (cluster, slot) *)
  labels : Ordpath.t array array;  (* aligned with [entries] *)
  lookup : lookup Lazy.t;  (* NodeID -> class, built on first use *)
}

(* [pages.(pid - first).(slot)] is the class of the entry at (pid, slot),
   -1 where no entry lies. *)
and lookup = { first : int; pages : int array array }

let build_lookup entries =
  let lo = ref max_int and hi = ref (-1) in
  Array.iter
    (Array.iter (fun (id : Node_id.t) ->
         lo := min !lo id.Node_id.pid;
         hi := max !hi id.Node_id.pid))
    entries;
  if !hi < 0 then { first = 0; pages = [||] }
  else begin
    let first = !lo in
    let width = Array.make (!hi - first + 1) 0 in
    Array.iter
      (Array.iter (fun (id : Node_id.t) ->
           let p = id.Node_id.pid - first in
           width.(p) <- max width.(p) (id.Node_id.slot + 1)))
      entries;
    let pages = Array.map (fun w -> Array.make w (-1)) width in
    Array.iteri
      (fun c ids ->
        Array.iter (fun (id : Node_id.t) -> pages.(id.Node_id.pid - first).(id.Node_id.slot) <- c) ids)
      entries;
    { first; pages }
  end

let make ~classes ~entries ~labels =
  { classes; entries; labels; lookup = lazy (build_lookup entries) }

let build ~classes ~class_of ~node_ids ~ordpaths =
  if
    Array.length class_of <> Array.length node_ids
    || Array.length class_of <> Array.length ordpaths
  then invalid_arg "Path_partition.build: class/node/ordpath arrays disagree";
  let buckets = Array.make (Array.length classes) [] in
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
  make ~classes ~entries:(Array.map (Array.map fst) sorted) ~labels:(Array.map (Array.map snd) sorted)

let class_count t = Array.length t.classes
let class_sequence t c = t.classes.(c)
let class_tag t c =
  let seq = t.classes.(c) in
  seq.(Array.length seq - 1)

let class_entries t c = t.entries.(c)
let class_labels t c = t.labels.(c)
let node_count t = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.entries

let class_at t ~pid ~slot =
  let { first; pages } = Lazy.force t.lookup in
  let p = pid - first in
  if p < 0 || p >= Array.length pages then -1
  else
    let page = pages.(p) in
    if slot < 0 || slot >= Array.length page then -1 else page.(slot)

let select t ~matches =
  let rec go c acc =
    if c < 0 then acc else go (c - 1) (if matches t.classes.(c) then c :: acc else acc)
  in
  go (Array.length t.classes - 1) []

(* --- persistence -------------------------------------------------------------- *)

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let add_string buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let encode buf t =
  add_u32 buf (Array.length t.classes);
  Array.iteri
    (fun c seq ->
      add_u32 buf (Array.length seq);
      Array.iter (fun tag -> add_string buf (Tag.to_string tag)) seq;
      let ids = t.entries.(c) in
      let labels = t.labels.(c) in
      add_u32 buf (Array.length ids);
      Array.iteri
        (fun i (id : Node_id.t) ->
          add_u32 buf id.Node_id.pid;
          add_u32 buf id.Node_id.slot;
          Ordpath.encode buf labels.(i))
        ids)
    t.classes

let read_u32 s pos =
  let v = Int32.to_int (String.get_int32_le s pos) in
  (v, pos + 4)

let read_string s pos =
  let n, pos = read_u32 s pos in
  (String.sub s pos n, pos + n)

let decode s pos =
  let nclasses, pos = read_u32 s pos in
  let pos = ref pos in
  let classes = Array.make (max 0 nclasses) [||] in
  let entries = Array.make (max 0 nclasses) [||] in
  let labels = Array.make (max 0 nclasses) [||] in
  for c = 0 to nclasses - 1 do
    let len, p = read_u32 s !pos in
    pos := p;
    classes.(c) <-
      Array.init len (fun _ ->
          let name, p = read_string s !pos in
          pos := p;
          Tag.of_string name);
    let n, p = read_u32 s !pos in
    pos := p;
    let pairs =
      Array.init n (fun _ ->
          let pid, p = read_u32 s !pos in
          let slot, p = read_u32 s p in
          let label, p = Ordpath.decode s p in
          pos := p;
          (Node_id.make ~pid ~slot, label))
    in
    entries.(c) <- Array.map fst pairs;
    labels.(c) <- Array.map snd pairs
  done;
  (make ~classes ~entries ~labels, !pos)

let equal a b =
  Array.length a.classes = Array.length b.classes
  && Array.for_all2
       (fun (x : Tag.t array) y -> Array.length x = Array.length y && Array.for_all2 Tag.equal x y)
       a.classes b.classes
  && Array.for_all2
       (fun x y -> Array.length x = Array.length y && Array.for_all2 Node_id.equal x y)
       a.entries b.entries
  && Array.for_all2
       (fun x y -> Array.length x = Array.length y && Array.for_all2 Ordpath.equal x y)
       a.labels b.labels
