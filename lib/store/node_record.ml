type core = {
  tag : Xnav_xml.Tag.t;
  ordpath : Xnav_xml.Ordpath.t;
  parent : int option;
  first_child : int option;
  last_child : int option;
  next_sibling : int option;
  prev_sibling : int option;
}

type down = {
  parent : int option;
  next_sibling : int option;
  prev_sibling : int option;
  target : Node_id.t;
}

type up = {
  first_child : int option;
  last_child : int option;
  target : Node_id.t;
  owner : Node_id.t;
  continues : bool;
}

type t = Core of core | Down of down | Up of up

let is_border = function Core _ -> false | Down _ | Up _ -> true

let target = function
  | Core _ -> invalid_arg "Node_record.target: core records have no target"
  | Down d -> d.target
  | Up u -> u.target

let none_slot = 0xffff

let add_slot buf slot =
  let v = match slot with None -> none_slot | Some s -> s in
  Buffer.add_uint16_le buf v

let add_varint buf x =
  let rec go x =
    if x < 0x80 then Buffer.add_char buf (Char.chr x)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
      go (x lsr 7)
    end
  in
  if x < 0 then invalid_arg "Node_record: negative varint";
  go x

let add_node_id buf id =
  add_varint buf id.Node_id.pid;
  add_varint buf id.Node_id.slot

let encode record =
  let buf = Buffer.create 32 in
  (match record with
  | Core c ->
    Buffer.add_char buf '\000';
    add_slot buf c.parent;
    add_slot buf c.first_child;
    add_slot buf c.last_child;
    add_slot buf c.next_sibling;
    add_slot buf c.prev_sibling;
    add_varint buf (Xnav_xml.Tag.id c.tag);
    Xnav_xml.Ordpath.encode buf c.ordpath
  | Down d ->
    Buffer.add_char buf '\001';
    add_slot buf d.parent;
    add_slot buf d.next_sibling;
    add_slot buf d.prev_sibling;
    add_node_id buf d.target
  | Up u ->
    Buffer.add_char buf (if u.continues then '\003' else '\002');
    add_slot buf u.first_child;
    add_slot buf u.last_child;
    add_node_id buf u.target;
    add_node_id buf u.owner);
  Buffer.contents buf

(* --- In-place field access -----------------------------------------------

   A record read where it lies — a page span
   ({!Xnav_storage.Page.record_offset}) or a string — with no copy and
   no option boxes. This is the one place the layout is spelled out;
   [decode] is built on it and [nav_of_bytes] reads the same offsets:

   {v
   Core  0 | parent u16 | first u16 | last u16 | next u16 | prev u16 | tag varint | ordpath
   Down  1 | parent u16 | next u16 | prev u16 | target pid varint | target slot varint
   Up  2|3 | first u16 | last u16 | target pid, slot varints | owner pid, slot varints
   v}

   (kind 3 is an Up whose run continues the chain). Absent links read as
   [-1]. *)

type kind = Kind_core | Kind_down | Kind_up

let kind_name = function Kind_core -> "core" | Kind_down -> "Down" | Kind_up -> "Up"

let kind_error b off =
  invalid_arg (Printf.sprintf "Node_record: unknown record kind %d" (Char.code (Bytes.get b off)))

let kind_at b off =
  match Bytes.get b off with
  | '\000' -> Kind_core
  | '\001' -> Kind_down
  | '\002' | '\003' -> Kind_up
  | _ -> kind_error b off

type links = {
  mutable kind : kind;
  mutable continues : bool;
  mutable parent : int;
  mutable first_child : int;
  mutable last_child : int;
  mutable next_sibling : int;
  mutable prev_sibling : int;
  mutable target_pid : int;
  mutable target_slot : int;
  mutable owner_pid : int;
  mutable owner_slot : int;
}

let links () =
  {
    kind = Kind_core;
    continues = false;
    parent = -1;
    first_child = -1;
    last_child = -1;
    next_sibling = -1;
    prev_sibling = -1;
    target_pid = -1;
    target_slot = -1;
    owner_pid = -1;
    owner_slot = -1;
  }

let slot_at b off =
  let v = Bytes.get_uint16_le b off in
  if v = none_slot then -1 else v

let varint_value b off =
  let acc = ref 0 and shift = ref 0 and pos = ref off in
  while Char.code (Bytes.get b !pos) >= 0x80 do
    acc := !acc lor ((Char.code (Bytes.get b !pos) land 0x7f) lsl !shift);
    shift := !shift + 7;
    incr pos
  done;
  !acc lor (Char.code (Bytes.get b !pos) lsl !shift)

let varint_skip b off =
  let pos = ref off in
  while Char.code (Bytes.get b !pos) >= 0x80 do
    incr pos
  done;
  !pos + 1

let read_links l b off =
  match Bytes.get b off with
  | '\000' ->
    l.kind <- Kind_core;
    l.parent <- slot_at b (off + 1);
    l.first_child <- slot_at b (off + 3);
    l.last_child <- slot_at b (off + 5);
    l.next_sibling <- slot_at b (off + 7);
    l.prev_sibling <- slot_at b (off + 9)
  | '\001' ->
    l.kind <- Kind_down;
    l.parent <- slot_at b (off + 1);
    l.next_sibling <- slot_at b (off + 3);
    l.prev_sibling <- slot_at b (off + 5);
    l.target_pid <- varint_value b (off + 7);
    l.target_slot <- varint_value b (varint_skip b (off + 7))
  | ('\002' | '\003') as kind ->
    l.kind <- Kind_up;
    l.continues <- kind = '\003';
    l.first_child <- slot_at b (off + 1);
    l.last_child <- slot_at b (off + 3);
    let target = off + 5 in
    l.target_pid <- varint_value b target;
    let target_slot = varint_skip b target in
    l.target_slot <- varint_value b target_slot;
    let owner = varint_skip b target_slot in
    l.owner_pid <- varint_value b owner;
    l.owner_slot <- varint_value b (varint_skip b owner)
  | _ -> kind_error b off

let core_label_off b off =
  match Bytes.get b off with
  | '\000' -> off + 11
  | '\001' | '\002' | '\003' -> invalid_arg "Node_record: a border record has no tag or ordpath"
  | _ -> kind_error b off

let tag_at b off = Xnav_xml.Tag.of_id (varint_value b (core_label_off b off))
let ordpath_at b off = Xnav_xml.Ordpath.decode_bytes b (varint_skip b (core_label_off b off))

let decode_at b off =
  let l = links () in
  read_links l b off;
  let slot v = if v < 0 then None else Some v in
  match l.kind with
  | Kind_core ->
    Core
      {
        tag = tag_at b off;
        ordpath = ordpath_at b off;
        parent = slot l.parent;
        first_child = slot l.first_child;
        last_child = slot l.last_child;
        next_sibling = slot l.next_sibling;
        prev_sibling = slot l.prev_sibling;
      }
  | Kind_down ->
    Down
      {
        parent = slot l.parent;
        next_sibling = slot l.next_sibling;
        prev_sibling = slot l.prev_sibling;
        target = Node_id.make ~pid:l.target_pid ~slot:l.target_slot;
      }
  | Kind_up ->
    Up
      {
        first_child = slot l.first_child;
        last_child = slot l.last_child;
        target = Node_id.make ~pid:l.target_pid ~slot:l.target_slot;
        owner = Node_id.make ~pid:l.owner_pid ~slot:l.owner_slot;
        continues = l.continues;
      }

let decode s = decode_at (Bytes.unsafe_of_string s) 0

(* --- Packed navigation words -------------------------------------------

   Chain walking (the fused automaton) needs only four things from a
   record: its kind, its tag, and its first-child / next-sibling links.
   [nav_of_bytes] reads exactly those fields in place into one unboxed
   int, which the view caches per slot:

   {v
   bits 0..1    kind (1 = Core, 2 = Down, 3 = Up; 0 is never produced,
                so it can serve as a cache sentinel)
   bits 2..16   link1 + 1   (Core/Up first child; Down next sibling;
                             0 = none)
   bits 17..31  link2 + 1   (Core next sibling; Down target slot)
   bits 32..62  high        (Core tag id; Down target pid)
   v}

   The 15-bit link fields are safe: a slot directory entry costs 4 bytes
   and pages are capped at 65535 bytes, so slot numbers stay below
   2^14. Tag ids and page ids are interned/allocated sequentially and
   fit 31 bits. *)

let nav_core = 1
let nav_down = 2
let nav_up = 3
let nav_kind word = word land 3
let nav_link1 word = ((word lsr 2) land 0x7fff) - 1
let nav_link2 word = ((word lsr 17) land 0x7fff) - 1
let nav_high word = word lsr 32

let nav_of_bytes b off =
  match Bytes.get b off with
  | '\000' ->
    nav_core
    lor ((slot_at b (off + 3) + 1) lsl 2)
    lor ((slot_at b (off + 7) + 1) lsl 17)
    lor (varint_value b (off + 11) lsl 32)
  | '\001' ->
    nav_down
    lor ((slot_at b (off + 3) + 1) lsl 2)
    lor ((varint_value b (varint_skip b (off + 7)) + 1) lsl 17)
    lor (varint_value b (off + 7) lsl 32)
  | '\002' | '\003' -> nav_up lor ((slot_at b (off + 1) + 1) lsl 2)
  | _ -> kind_error b off

let encoded_size record = String.length (encode record)

(* Worst case chargeable to one node: it anchors a run (Up: 1 + 4 + two
   NodeIDs of <= 10 bytes = 25), ends a run (Down: 1 + 6 + 10 = 17), and
   starts a remote child chain (another Down: 17), plus 4 slot-directory
   entries of 4 bytes. *)
let max_overhead = 26 + 17 + 17 + (4 * Xnav_storage.Page.slot_entry_size)

let pp ppf = function
  | Core c ->
    Format.fprintf ppf "core(%a @@%a)" Xnav_xml.Tag.pp c.tag Xnav_xml.Ordpath.pp c.ordpath
  | Down d -> Format.fprintf ppf "down(->%a)" Node_id.pp d.target
  | Up u -> Format.fprintf ppf "up(->%a owner=%a)" Node_id.pp u.target Node_id.pp u.owner

let equal a b = String.equal (encode a) (encode b)
