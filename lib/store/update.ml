module Tree = Xnav_xml.Tree
module Ordpath = Xnav_xml.Ordpath
module Page = Xnav_storage.Page
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager

type position = First | Last | After of Node_id.t

exception No_room_for_border of int

(* --- page surgery helpers ------------------------------------------------ *)

(* Write-through page mutation: the buffered copy is changed and flushed
   to the simulated disk in one step — unless [changed] says the result
   left the page as it was. *)
let with_page ?(changed = fun _ -> true) store pid f =
  let buffer = Store.buffer store in
  let frame = Buffer_manager.fix buffer pid in
  let page = Buffer_manager.page frame in
  match f page with
  | result ->
    if changed result then begin
      Disk.write (Buffer_manager.disk buffer) pid (Page.to_bytes page);
      Buffer_manager.unfix buffer frame;
      (* Live views of {e this} cluster must drop their swizzled decode
         caches: the page bytes changed underneath them. Views of other
         clusters, cached results over them and partition classes without
         an entry here all stay valid — invalidation is cluster-granular. *)
      Store.note_mutation_at store pid
    end
    else Buffer_manager.unfix buffer frame;
    result
  | exception e ->
    (* Nothing was flushed and nothing is considered mutated — but the
       pin must not leak (writer jobs catch surgery failures and carry
       on against the same pool). *)
    Buffer_manager.unfix buffer frame;
    raise e

let get_record = Store.read

let set_record store (id : Node_id.t) record =
  with_page store id.Node_id.pid (fun page ->
      if not (Page.replace page id.Node_id.slot (Node_record.encode record)) then
        failwith "Update: record no longer fits its page")

let remove_record store (id : Node_id.t) =
  with_page store id.Node_id.pid (fun page -> Page.delete page id.Node_id.slot)

let insert_into store pid record =
  with_page store pid (fun page -> Page.insert page (Node_record.encode record))

(* Core inserts keep this many bytes free per page so a later tail
   [Down] (a small border record) can always be spliced into a chain
   that ends there. Border records themselves may consume the reserve. *)
let down_reserve = 64

let insert_core_reserved store pid record =
  let encoded = Node_record.encode record in
  with_page ~changed:Option.is_some store pid (fun page ->
      if Page.free_space page >= String.length encoded + down_reserve then
        Page.insert page encoded
      else None)

(* Field surgery; all link fields are fixed-size, so these replacements
   never grow the record. *)
let set_next store id next =
  match get_record store id with
  | Node_record.Core c -> set_record store id (Node_record.Core { c with next_sibling = next })
  | Node_record.Down d -> set_record store id (Node_record.Down { d with next_sibling = next })
  | Node_record.Up _ -> assert false

let set_prev store id prev =
  match get_record store id with
  | Node_record.Core c -> set_record store id (Node_record.Core { c with prev_sibling = prev })
  | Node_record.Down d -> set_record store id (Node_record.Down { d with prev_sibling = prev })
  | Node_record.Up _ -> assert false

let set_first_child store id first =
  match get_record store id with
  | Node_record.Core c -> set_record store id (Node_record.Core { c with first_child = first })
  | Node_record.Up u -> set_record store id (Node_record.Up { u with first_child = first })
  | Node_record.Down _ -> assert false

let set_last_child store id last =
  match get_record store id with
  | Node_record.Core c -> set_record store id (Node_record.Core { c with last_child = last })
  | Node_record.Up u -> set_record store id (Node_record.Up { u with last_child = last })
  | Node_record.Down _ -> assert false

(* --- page selection -------------------------------------------------------- *)

(* Read-only probe of a page: one that merely gets {e looked at} must
   not count as mutated (that would stale its cluster's caches for
   nothing). *)
let peek store pid f =
  let buffer = Store.buffer store in
  let frame = Buffer_manager.fix buffer pid in
  let result = f (Buffer_manager.page frame) in
  Buffer_manager.unfix buffer frame;
  result

(* A page able to host [need] more bytes: the preferred page, else the
   store's last page, else [None] — a fresh page, appended by
   [append_page] once the insert is known to succeed. *)
let host_page store ~preferred ~need =
  let free pid = peek store pid Page.free_space in
  if free preferred >= need then Some preferred
  else begin
    let last = Store.first_page store + Store.page_count store - 1 in
    if last <> preferred && free last >= need then Some last else None
  end

let append_page store =
  let disk = Buffer_manager.disk (Store.buffer store) in
  let pid = Disk.alloc disk in
  if pid <> Store.first_page store + Store.page_count store then
    failwith "Update: cannot grow a store that does not end the disk";
  let page = Page.create ~page_size:(Disk.config disk).Disk.page_size in
  Disk.write disk pid (Page.to_bytes page);
  Store.note_new_page store;
  pid

(* --- insertion -------------------------------------------------------------- *)

let core_of store (id : Node_id.t) ~who =
  match get_record store id with
  | Node_record.Core c -> c
  | Node_record.Down _ | Node_record.Up _ ->
    invalid_arg (Printf.sprintf "Update: %s is a border record" who)

(* The final segment of a chain: follow tail Downs. Returns the anchor
   (core parent or Up) and the last chain element there, if any. *)
let rec final_segment store (anchor : Node_id.t) last_slot =
  match last_slot with
  | None -> (anchor, None)
  | Some slot ->
    let id = Node_id.make ~pid:anchor.Node_id.pid ~slot in
    (match get_record store id with
    | Node_record.Core _ -> (anchor, Some id)
    | Node_record.Down d -> begin
      match get_record store d.target with
      | Node_record.Up u -> final_segment store d.target u.last_child
      | Node_record.Core _ | Node_record.Down _ -> assert false
    end
    | Node_record.Up _ -> assert false)

(* The first logical child's ordpath (following a leading Down). *)
let rec first_member_ord store pid slot =
  let id = Node_id.make ~pid ~slot in
  match get_record store id with
  | Node_record.Core c -> c.Node_record.ordpath
  | Node_record.Down d -> begin
    match get_record store d.target with
    | Node_record.Up u -> first_member_ord store d.target.Node_id.pid (Option.get u.first_child)
    | Node_record.Core _ | Node_record.Down _ -> assert false
  end
  | Node_record.Up _ -> assert false

(* Where a new node physically goes: the anchor record of the segment,
   the chain element it follows (None = segment head) and the one it
   precedes (None = segment tail); all in the anchor's page. *)
type slot_in_chain = {
  anchor : Node_id.t;
  before : int option;  (* slot of the element the new node follows *)
  after : int option;  (* slot of the element the new node precedes *)
  ordpath : Ordpath.t;
}

(* Descend through leading Downs to the head of the first run: repeated
   prepends must land in that run's segment, otherwise every overflowing
   insert would add one more border record to the parent's page. *)
let rec head_position store (anchor : Node_id.t) first_slot =
  match first_slot with
  | None -> (anchor, None)
  | Some slot -> begin
    let id = Node_id.make ~pid:anchor.Node_id.pid ~slot in
    match get_record store id with
    | Node_record.Core _ -> (anchor, Some slot)
    | Node_record.Down d -> begin
      match get_record store d.target with
      | Node_record.Up u -> head_position store d.target u.first_child
      | Node_record.Core _ | Node_record.Down _ -> assert false
    end
    | Node_record.Up _ -> assert false
  end

let locate store ~parent position =
  let parent_core = core_of store parent ~who:"parent" in
  match position with
  | First ->
    let ordpath =
      match parent_core.Node_record.first_child with
      | None -> Ordpath.child parent_core.Node_record.ordpath 0
      | Some slot ->
        Ordpath.between parent_core.Node_record.ordpath
          (first_member_ord store parent.Node_id.pid slot)
    in
    let anchor, after = head_position store parent parent_core.Node_record.first_child in
    { anchor; before = None; after; ordpath }
  | Last ->
    let anchor, last = final_segment store parent parent_core.Node_record.last_child in
    let ordpath =
      match last with
      | None -> Ordpath.child parent_core.Node_record.ordpath 0
      | Some last_id ->
        let last_core = core_of store last_id ~who:"last child" in
        Ordpath.next_sibling last_core.Node_record.ordpath
    in
    { anchor; before = Option.map (fun (i : Node_id.t) -> i.Node_id.slot) last; after = None; ordpath }
  | After sibling ->
    let sib = core_of store sibling ~who:"sibling" in
    let anchor_slot =
      match sib.Node_record.parent with
      | Some s -> s
      | None -> invalid_arg "Update: cannot insert after the document root"
    in
    let anchor = Node_id.make ~pid:sibling.Node_id.pid ~slot:anchor_slot in
    (* Validate the sibling really hangs (possibly via an Up) under
       [parent]. *)
    let owner =
      match get_record store anchor with
      | Node_record.Core _ -> anchor
      | Node_record.Up u -> u.Node_record.owner
      | Node_record.Down _ -> assert false
    in
    if not (Node_id.equal owner parent) then
      invalid_arg "Update: the After sibling is not a child of the parent";
    let ordpath =
      match sib.Node_record.next_sibling with
      | None -> Ordpath.next_sibling sib.Node_record.ordpath
      | Some slot ->
        Ordpath.between sib.Node_record.ordpath
          (first_member_ord store sibling.Node_id.pid slot)
    in
    (* If a remote run follows the sibling, insert at that run's head so
       repeated After-inserts do not pile Downs into the sibling's page. *)
    (match sib.Node_record.next_sibling with
    | Some slot
      when (match get_record store (Node_id.make ~pid:sibling.Node_id.pid ~slot) with
           | Node_record.Down _ -> true
           | Node_record.Core _ | Node_record.Up _ -> false) ->
      let anchor', after = head_position store anchor sib.Node_record.next_sibling in
      { anchor = anchor'; before = None; after; ordpath }
    | Some _ | None ->
      { anchor; before = Some sibling.Node_id.slot; after = sib.Node_record.next_sibling; ordpath })

(* Splice [elem] (already inserted in the anchor's page) into the chain
   described by [loc]. *)
let splice store loc (elem : Node_id.t) =
  let pid = loc.anchor.Node_id.pid in
  (match loc.before with
  | Some slot -> set_next store (Node_id.make ~pid ~slot) (Some elem.Node_id.slot)
  | None -> set_first_child store loc.anchor (Some elem.Node_id.slot));
  match loc.after with
  | Some slot -> set_prev store (Node_id.make ~pid ~slot) (Some elem.Node_id.slot)
  | None -> set_last_child store loc.anchor (Some elem.Node_id.slot)

let insert_element store ~parent ?(position = Last) tag =
  let loc = locate store ~parent position in
  let home = loc.anchor.Node_id.pid in
  let core ~parent_slot ~prev ~next =
    Node_record.Core
      {
        tag;
        ordpath = loc.ordpath;
        parent = Some parent_slot;
        first_child = None;
        last_child = None;
        next_sibling = next;
        prev_sibling = prev;
      }
  in
  let direct =
    insert_core_reserved store home
      (core ~parent_slot:loc.anchor.Node_id.slot ~prev:loc.before ~next:loc.after)
  in
  let node_id =
    match direct with
    | Some slot ->
      let id = Node_id.make ~pid:home ~slot in
      splice store loc id;
      id
    | None ->
      (* No room next to the siblings: one-member run in an overflow
         page, linked through a fresh Down/Up pair. *)
      let dummy = Node_id.make ~pid:0 ~slot:0 in
      let continues = loc.after <> None in
      let up_probe =
        Node_record.Up
          { first_child = None; last_child = None; target = dummy; owner = parent; continues }
      in
      let need =
        Node_record.encoded_size up_probe
        + Node_record.encoded_size (core ~parent_slot:0 ~prev:None ~next:None)
        + down_reserve + (3 * Page.slot_entry_size)
      in
      let host = host_page store ~preferred:home ~need in
      (* The Down must fit where the chain lives. Border records are tiny
         and pages keep slack, but a full page is still possible: check
         before writing anything, with the Up's slot-to-be as its
         target. *)
      let down target =
        Node_record.Down
          {
            parent = Some loc.anchor.Node_id.slot;
            next_sibling = loc.after;
            prev_sibling = loc.before;
            target;
          }
      in
      let up_to_be =
        match host with
        | Some pid -> Node_id.make ~pid ~slot:(peek store pid Page.next_slot)
        | None -> Node_id.make ~pid:(Store.first_page store + Store.page_count store) ~slot:0
      in
      let down_size = Node_record.encoded_size (down up_to_be) in
      if not (peek store home (fun page -> Page.fits page down_size)) then
        raise (No_room_for_border home);
      let overflow = match host with Some pid -> pid | None -> append_page store in
      let up_slot =
        match insert_into store overflow up_probe with
        | Some slot -> slot
        | None -> failwith "Update: overflow page rejected the Up record"
      in
      let up_id = Node_id.make ~pid:overflow ~slot:up_slot in
      let n_slot =
        match
          insert_core_reserved store overflow (core ~parent_slot:up_slot ~prev:None ~next:None)
        with
        | Some slot -> slot
        | None -> failwith "Update: overflow page rejected the node record"
      in
      let n_id = Node_id.make ~pid:overflow ~slot:n_slot in
      let down_slot =
        match insert_into store home (down up_id) with
        | Some slot -> slot
        | None -> failwith "Update: no room for a border record in the sibling page"
      in
      let down_id = Node_id.make ~pid:home ~slot:down_slot in
      set_record store up_id
        (Node_record.Up
           {
             first_child = Some n_slot;
             last_child = Some n_slot;
             target = down_id;
             owner = parent;
             continues;
           });
      splice store loc down_id;
      n_id
  in
  Store.note_nodes_delta store 1;
  let partition = Store.partition store in
  Path_partition.add partition
    (Path_partition.child partition (Store.class_of store parent) tag)
    node_id loc.ordpath;
  node_id

let rec insert_tree store ~parent ?position (tree : Tree.t) =
  let id = insert_element store ~parent ?position tree.Tree.tag in
  Array.iter (fun child -> ignore (insert_tree store ~parent:id child)) tree.Tree.children;
  id

(* --- deletion ----------------------------------------------------------------- *)

(* Remove a chain element's record and everything hanging below it
   (subtrees for cores, whole runs for Downs). Does not touch the
   element's own chain links. Each removed core leaves its class's entry
   list. Returns the number of cores removed. *)
let rec purge store (id : Node_id.t) =
  match get_record store id with
  | Node_record.Core c ->
    Path_partition.remove (Store.partition store) (Store.class_of store id) id;
    let removed = purge_chain store id.Node_id.pid c.first_child in
    remove_record store id;
    removed + 1
  | Node_record.Down d ->
    let removed =
      match get_record store d.target with
      | Node_record.Up u ->
        let removed = purge_chain store d.target.Node_id.pid u.first_child in
        remove_record store d.target;
        removed
      | Node_record.Core _ | Node_record.Down _ -> assert false
    in
    remove_record store id;
    removed
  | Node_record.Up _ -> assert false

and purge_chain store pid slot_opt =
  match slot_opt with
  | None -> 0
  | Some slot ->
    let id = Node_id.make ~pid ~slot in
    let next =
      match get_record store id with
      | Node_record.Core c -> c.next_sibling
      | Node_record.Down d -> d.next_sibling
      | Node_record.Up _ -> assert false
    in
    let removed = purge store id in
    removed + purge_chain store pid next

(* Unlink a chain element (core or Down) from its chain, collapsing the
   anchoring border pair if the run becomes empty. *)
let rec unlink store (id : Node_id.t) =
  let prev, next, parent =
    match get_record store id with
    | Node_record.Core c -> (c.prev_sibling, c.next_sibling, c.parent)
    | Node_record.Down d -> (d.prev_sibling, d.next_sibling, d.parent)
    | Node_record.Up _ -> assert false
  in
  let pid = id.Node_id.pid in
  let anchor_slot =
    match parent with
    | Some slot -> slot
    | None -> invalid_arg "Update: cannot unlink the document root"
  in
  let anchor = Node_id.make ~pid ~slot:anchor_slot in
  (match prev with
  | Some slot -> set_next store (Node_id.make ~pid ~slot) next
  | None -> set_first_child store anchor next);
  (match next with
  | Some slot -> set_prev store (Node_id.make ~pid ~slot) prev
  | None -> set_last_child store anchor prev);
  (* Collapse an emptied run. *)
  match get_record store anchor with
  | Node_record.Core _ -> ()
  | Node_record.Up u ->
    if u.first_child = None then begin
      let down_id = u.target in
      unlink store down_id;
      remove_record store down_id;
      remove_record store anchor
    end
  | Node_record.Down _ -> assert false

let delete_subtree store (id : Node_id.t) =
  (match get_record store id with
  | Node_record.Core c ->
    if c.parent = None then invalid_arg "Update: cannot delete the document root"
  | Node_record.Down _ | Node_record.Up _ ->
    invalid_arg "Update: cannot delete a border record");
  unlink store id;
  let removed = purge store id in
  Store.note_nodes_delta store (-removed);
  removed
