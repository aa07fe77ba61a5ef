module Axis = Xnav_xml.Axis
module Buffer_manager = Xnav_storage.Buffer_manager
module Page = Xnav_storage.Page

type access_log = (int, unit) Hashtbl.t

type t = {
  uid : int;  (* process-unique attach stamp; cache keys across stores *)
  identity : int;  (* content digest (tag census + record count); see [identity] *)
  buffer : Buffer_manager.t;
  root : Node_id.t;
  first_page : int;
  mutable page_count : int;
  mutable node_count : int;
  height : int;
  partition : Path_partition.t;
  mutable swizzle : bool;
  mutable mutations : int;
  mutable swizzle_hits : int;
  mutable swizzle_misses : int;
  (* Cluster-granular mutation tracking: [page_stamps] maps a pid to the
     global [mutations] value of its last mutation. A cached decode of
     page [pid] taken at stamp [s] is valid iff [page_stamp t pid <= s]. *)
  page_stamps : (int, int) Hashtbl.t;
  (* Optional observer tables: when installed, every record access /
     page mutation reports the cluster it touched. The execution layer
     uses them to attach cluster footprints to cached results and to
     scope a writer's invalidation to the clusters it wrote. *)
  mutable touch_log : (int, unit) Hashtbl.t option;
  mutable write_log : (int, unit) Hashtbl.t option;
}

let next_uid = ref 0

let fresh_uid () =
  incr next_uid;
  !next_uid

let reset_uids () = next_uid := 0

(* Deterministic content digest over what attach knows without reading a
   page: the record count and the full tag census (which covers the root
   element's tag). Two attaches of the same document agree; documents
   differing in any tag population disagree (modulo hash collisions,
   which only cost a spurious cache miss — uids still disambiguate live
   stores). *)
let identity_of ~node_count ~tag_counts =
  let mix h x = (h * 1_000_003) lxor (x land max_int) in
  List.fold_left
    (fun h (tag, n) -> mix (mix h (Xnav_xml.Tag.hash tag)) n)
    (mix 0x9e3779b9 node_count) tag_counts

(* Per tag, the sum of its classes' live counts: at import, the census
   {!Xnav_xml.Tree.tag_counts} takes of the document. *)
let census partition =
  let counts = Hashtbl.create 64 in
  for c = 0 to Path_partition.class_count partition - 1 do
    let n = Array.length (Path_partition.class_entries partition c) in
    if n > 0 then begin
      let tag = Path_partition.class_tag partition c in
      Hashtbl.replace counts tag (n + Option.value ~default:0 (Hashtbl.find_opt counts tag))
    end
  done;
  Hashtbl.fold (fun tag n acc -> (tag, n) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> Xnav_xml.Tag.compare a b)

let attach_meta ~partition buffer ~root ~first_page ~page_count ~node_count ~height =
  {
    uid = fresh_uid ();
    identity = identity_of ~node_count ~tag_counts:(census partition);
    buffer;
    root;
    first_page;
    page_count;
    node_count;
    height;
    partition;
    swizzle = true;
    mutations = 0;
    swizzle_hits = 0;
    swizzle_misses = 0;
    page_stamps = Hashtbl.create 64;
    touch_log = None;
    write_log = None;
  }

let attach buffer (import : Import.result) =
  attach_meta ~partition:import.partition buffer ~root:import.root ~first_page:import.first_page
    ~page_count:import.page_count ~node_count:import.node_count ~height:import.height

let buffer t = t.buffer
let root t = t.root
let node_count t = t.node_count
let first_page t = t.first_page
let page_count t = t.page_count
let height t = t.height
let tag_counts t = census t.partition
let partition t = t.partition
let uid t = t.uid
let identity t = t.identity
let mutation_stamp t = t.mutations

(* --- Cluster-granular mutation tracking --------------------------------- *)

let page_stamp t pid = Option.value ~default:0 (Hashtbl.find_opt t.page_stamps pid)

let touch t pid =
  match t.touch_log with Some tbl -> Hashtbl.replace tbl pid () | None -> ()

let swap_touch_log t log =
  let old = t.touch_log in
  t.touch_log <- log;
  old

let swap_write_log t log =
  let old = t.write_log in
  t.write_log <- log;
  old

(* Bookkeeping hooks for the update layer. *)
let note_new_page t = t.page_count <- t.page_count + 1
let note_nodes_delta t delta = t.node_count <- t.node_count + delta

let note_mutation_at t pid =
  t.mutations <- t.mutations + 1;
  Hashtbl.replace t.page_stamps pid t.mutations;
  match t.write_log with Some tbl -> Hashtbl.replace tbl pid () | None -> ()

let class_of t (id : Node_id.t) = Path_partition.class_at t.partition ~pid:id.pid ~slot:id.slot

let set_swizzling t on = t.swizzle <- on
let swizzle_stats t = (t.swizzle_hits, t.swizzle_misses)

let tag_count t tag =
  match List.find_opt (fun (x, _) -> Xnav_xml.Tag.equal x tag) (tag_counts t) with
  | Some (_, n) -> n
  | None -> 0

(* --- Views ------------------------------------------------------------ *)

(* A view is the swizzled representation of a pinned cluster: alongside
   the frame it carries a per-slot cache of decoded records, so repeated
   navigation over the page (cursor re-walks, speculative seeds, the
   XStep chain) never re-enters the record codec. The cache is dropped
   when the store mutates ([stamp] falls behind [mutations]) and the
   whole view dies on {!release} — a swizzled handle must not survive
   its pin. *)
type view = {
  pid : int;
  frame : Buffer_manager.frame;
  page : Page.t;
  owner : t;
  cache : Node_record.t option array;  (* [||] when swizzling is off *)
  nav : int array;
      (* packed navigation words ({!Node_record.nav_of_bytes}), 0 = not
         yet parsed; [||] when swizzling is off *)
  mutable stamp : int;
  mutable live : bool;
}

let make_view t frame =
  touch t (Buffer_manager.frame_pid frame);
  let page = Buffer_manager.page frame in
  let slots = Page.slot_count page in
  let cache = if t.swizzle then Array.make slots None else [||] in
  let nav = if t.swizzle then Array.make slots 0 else [||] in
  {
    pid = Buffer_manager.frame_pid frame;
    frame;
    page;
    owner = t;
    cache;
    nav;
    stamp = t.mutations;
    live = true;
  }

let view t pid = make_view t (Buffer_manager.fix t.buffer pid)
let view_of_frame t frame = make_view t frame

let release t v =
  if not v.live then invalid_arg "Store.release: view already released";
  v.live <- false;
  Buffer_manager.unfix t.buffer v.frame

let view_valid v = v.live
let view_pid v = v.pid

let check_live v =
  if not v.live then
    invalid_arg (Printf.sprintf "Store: swizzled view of page %d used after release" v.pid)

(* The store changed under the pin: drop the cached decodes — but only
   when the mutation actually touched {e this} cluster (the page bytes
   themselves are write-through, so a re-decode sees the updated
   record). A write elsewhere fast-forwards the stamp and keeps the
   swizzled decodes, which is what makes invalidation cluster-granular. *)
let revalidate v t =
  if v.stamp <> t.mutations then begin
    if page_stamp t v.pid > v.stamp then begin
      Array.fill v.cache 0 (Array.length v.cache) None;
      Array.fill v.nav 0 (Array.length v.nav) 0
    end;
    v.stamp <- t.mutations
  end

let get v slot =
  check_live v;
  let t = v.owner in
  if not t.swizzle then Node_record.decode (Page.get v.page slot)
  else begin
    revalidate v t;
    if slot >= 0 && slot < Array.length v.cache then begin
      match v.cache.(slot) with
      | Some record ->
        t.swizzle_hits <- t.swizzle_hits + 1;
        record
      | None ->
        let record = Node_record.decode (Page.get v.page slot) in
        t.swizzle_misses <- t.swizzle_misses + 1;
        v.cache.(slot) <- Some record;
        record
    end
    else begin
      (* Slots appended after the view was built: decode uncached. *)
      t.swizzle_misses <- t.swizzle_misses + 1;
      Node_record.decode (Page.get v.page slot)
    end
  end

(* The fused automaton's record access: the packed navigation word,
   parsed in place from the page span — no record string copy, no slot
   options, no ordpath. Shares the swizzle counters and the mutation
   stamp with [get]; a parsed word is cached per slot exactly like a
   decoded record (0 marks an unparsed slot — [nav_of_bytes] never
   returns it). *)
let nav_at page slot = Node_record.nav_of_bytes (Page.to_bytes page) (Page.record_offset page slot)

let nav v slot =
  check_live v;
  let t = v.owner in
  if not t.swizzle then nav_at v.page slot
  else begin
    revalidate v t;
    if slot >= 0 && slot < Array.length v.nav then begin
      let word = v.nav.(slot) in
      if word <> 0 then begin
        t.swizzle_hits <- t.swizzle_hits + 1;
        word
      end
      else begin
        let word = nav_at v.page slot in
        t.swizzle_misses <- t.swizzle_misses + 1;
        v.nav.(slot) <- word;
        word
      end
    end
    else begin
      t.swizzle_misses <- t.swizzle_misses + 1;
      nav_at v.page slot
    end
  end

let id_of v slot = Node_id.make ~pid:v.pid ~slot

let read_links v l slot =
  check_live v;
  Node_record.read_links l (Page.to_bytes v.page) (Page.record_offset v.page slot)

let iter_records v f =
  check_live v;
  Page.iter (fun slot encoded -> f slot (Node_record.decode encoded)) v.page

(* Discriminator peek only — copying every record out of the page just
   to look at byte 0 dominated the scan profile. A top-level loop, so the
   search allocates nothing. *)
let rec up_from page n slot =
  if slot >= n then -1
  else if
    Page.mem page slot
    && match Page.record_byte page slot with '\002' | '\003' -> true | _ -> false
  then slot
  else up_from page n (slot + 1)

let next_up v slot =
  check_live v;
  up_from v.page (Page.slot_count v.page) (max 0 slot)

(* --- Intra-cluster cursors --------------------------------------------- *)

type emission = Reached of int * Node_record.core | Crossing of int * Node_id.t

(* A chain task walks a sibling chain; [descend] additionally visits each
   core's subtree in preorder. *)
type task = T_node of int * Node_record.core * bool | T_chain of int option * bool

type cursor = { view : view; mutable agenda : task list }

let core_at v slot =
  match get v slot with
  | Node_record.Core c -> c
  | Node_record.Down _ | Node_record.Up _ ->
    invalid_arg (Printf.sprintf "Store: slot %d is a border record" slot)

let up_at v slot =
  match get v slot with
  | Node_record.Up u -> u
  | Node_record.Core _ | Node_record.Down _ ->
    invalid_arg (Printf.sprintf "Store: slot %d is not an Up border" slot)

let check_downward axis =
  if not (Axis.is_downward axis) then
    invalid_arg
      (Printf.sprintf "Store: axis %s has no intra-cluster cursor (use global_axis)"
         (Axis.to_string axis))

let start v axis slot =
  check_downward axis;
  let core = core_at v slot in
  let agenda =
    match (axis : Axis.t) with
    | Self -> [ T_node (slot, core, false) ]
    | Child -> [ T_chain (core.first_child, false) ]
    | Descendant -> [ T_chain (core.first_child, true) ]
    | Descendant_or_self -> [ T_node (slot, core, true) ]
    | Parent | Ancestor | Ancestor_or_self | Following_sibling | Preceding_sibling ->
      assert false
  in
  { view = v; agenda }

let resume v axis slot =
  check_downward axis;
  let up = up_at v slot in
  let agenda =
    match (axis : Axis.t) with
    | Self -> []
    | Child -> [ T_chain (up.first_child, false) ]
    | Descendant | Descendant_or_self -> [ T_chain (up.first_child, true) ]
    | Parent | Ancestor | Ancestor_or_self | Following_sibling | Preceding_sibling ->
      assert false
  in
  { view = v; agenda }

let rec next_emission cursor =
  match cursor.agenda with
  | [] -> None
  | T_node (slot, core, descend) :: rest ->
    cursor.agenda <- (if descend then T_chain (core.first_child, true) :: rest else rest);
    Some (Reached (slot, core))
  | T_chain (None, _) :: rest ->
    cursor.agenda <- rest;
    next_emission cursor
  | T_chain (Some slot, descend) :: rest -> begin
    match get cursor.view slot with
    | Node_record.Core core ->
      (* Emit directly instead of re-queuing a T_node: preorder means
         self, then subtree, then next sibling, so the follow-up agenda
         is known right here. *)
      cursor.agenda <-
        (if descend then
           T_chain (core.first_child, true) :: T_chain (core.next_sibling, true) :: rest
         else T_chain (core.next_sibling, false) :: rest);
      Some (Reached (slot, core))
    | Node_record.Down down ->
      cursor.agenda <- T_chain (down.next_sibling, descend) :: rest;
      Some (Crossing (slot, down.target))
    | Node_record.Up _ -> assert false (* Up records never sit in chains *)
  end

(* --- Whole-node access -------------------------------------------------- *)

type info = { id : Node_id.t; tag : Xnav_xml.Tag.t; ordpath : Xnav_xml.Ordpath.t }

(* One record access: [touch], [fix], [parse arg bytes off] on the
   record's span under the pin, [unfix]. The pin is released also when
   [parse] raises: a stale slot (removed by a concurrent delete) or a
   malformed record, and callers probing for exactly that condition
   must find the pool balanced afterwards. Global navigation pays just
   this per record it reads: one buffer lookup, no copy. *)
let access t pid slot parse arg =
  touch t pid;
  let frame = Buffer_manager.fix t.buffer pid in
  match
    let page = Buffer_manager.page frame in
    parse arg (Page.to_bytes page) (Page.record_offset page slot)
  with
  | v ->
    Buffer_manager.unfix t.buffer frame;
    v
  | exception e ->
    Buffer_manager.unfix t.buffer frame;
    raise e

let read t (id : Node_id.t) = access t id.pid id.slot (fun () -> Node_record.decode_at) ()

let parse_info (id : Node_id.t) b off =
  match Node_record.kind_at b off with
  | Node_record.Kind_core ->
    Some { id; tag = Node_record.tag_at b off; ordpath = Node_record.ordpath_at b off }
  | Node_record.Kind_down | Node_record.Kind_up -> None

let info t (id : Node_id.t) =
  match access t id.pid id.slot parse_info id with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Store.info: %s is a border record" (Node_id.to_string id))

let context_error () = invalid_arg "Store.global_axis: context is a border record"

let context_info t (id : Node_id.t) =
  match access t id.pid id.slot parse_info id with Some _ as i -> i | None -> context_error ()

(* --- Global navigation --------------------------------------------------- *)

(* A border-transparent walk. Every access parses the record in place
   into the walker's registers ({!Node_record.links}: kind, slot links, a
   border's target, an Up's owner), and only a core the walk emits has
   its tag and ORDPATH decoded. Chain positions are stack frames of three
   ints: page, slot (-1 = end of segment) and anchoring slot
   (-1 = none). *)
type walker = {
  store : t;
  descend : bool;  (* push each emitted core's children above it *)
  mutable stop_pid : int;
  mutable stop_slot : int;  (* the Up a border continuation entered at; -1 = none *)
  mutable stack : int array;
  mutable depth : int;  (* ints of [stack] in use *)
  (* The access in progress, handed to [parse_record] without a closure. *)
  mutable at_pid : int;
  mutable at_slot : int;
  mutable emit : bool;  (* decode the record's tag and ORDPATH if it is a core *)
  r : Node_record.links;
}

let walker t ~descend =
  {
    store = t;
    descend;
    stop_pid = -1;
    stop_slot = -1;
    stack = (if descend then Array.make 24 0 else [| 0; 0; 0 |]);
    depth = 0;
    at_pid = -1;
    at_slot = -1;
    emit = false;
    r = Node_record.links ();
  }

let parse_record w b off =
  Node_record.read_links w.r b off;
  if w.emit && w.r.kind = Node_record.Kind_core then
    Some
      {
        id = Node_id.make ~pid:w.at_pid ~slot:w.at_slot;
        tag = Node_record.tag_at b off;
        ordpath = Node_record.ordpath_at b off;
      }
  else None

(* Read record [pid.slot] into the registers; with [emit], a core comes
   back as its info. *)
let load w ~emit pid slot =
  w.at_pid <- pid;
  w.at_slot <- slot;
  w.emit <- emit;
  access w.store pid slot parse_record w

let unexpected w expected =
  invalid_arg
    (Printf.sprintf "Store: record %d.%d is a %s record, expected %s" w.at_pid w.at_slot
       (Node_record.kind_name w.r.kind) expected)

(* Follow the border the registers hold to its companion, which must be
   of kind [kind]. *)
let cross w kind expected =
  ignore (load w ~emit:false w.r.target_pid w.r.target_slot);
  if w.r.kind <> kind then unexpected w expected

let set_frame w at pid slot pslot =
  w.stack.(at) <- pid;
  w.stack.(at + 1) <- slot;
  w.stack.(at + 2) <- pslot

let push w pid slot pslot =
  if w.depth + 3 > Array.length w.stack then begin
    let grown = Array.make (2 * Array.length w.stack) 0 in
    Array.blit w.stack 0 grown 0 w.depth;
    w.stack <- grown
  end;
  set_frame w w.depth pid slot pslot;
  w.depth <- w.depth + 3

(* Advance the top frame to the next core of its sibling chain and emit
   it. A Down is resolved through its target Up. At the end of a run
   whose Down sits mid-chain ([continues]) the walk resumes after that
   Down — unless the run's Up is the walk's stop, the entry of a border
   continuation, whose post-run siblings belong to the cluster the
   crossing came from. An emitted core's frame moves on to its next
   sibling and, in a descending walk, its children go on top. [None]
   when the frame's chain is exhausted. *)
let rec forward w =
  let top = w.depth - 3 in
  let pid = w.stack.(top) and slot = w.stack.(top + 1) and pslot = w.stack.(top + 2) in
  if slot >= 0 then begin
    match load w ~emit:true pid slot with
    | Some _ as emitted ->
      set_frame w top pid w.r.next_sibling w.r.parent;
      if w.descend then push w pid w.r.first_child slot;
      emitted
    | None ->
      if w.r.kind <> Node_record.Kind_down then unexpected w "a core or a Down border";
      cross w Node_record.Kind_up "an Up border";
      set_frame w top w.at_pid w.r.first_child w.at_slot;
      forward w
  end
  else if pslot < 0 then None
  else begin
    ignore (load w ~emit:false pid pslot);
    match w.r.kind with
    | Node_record.Kind_core -> None (* true end of the children list *)
    | Node_record.Kind_down -> unexpected w "a core or an Up border"
    | Node_record.Kind_up ->
      if (not w.r.continues) || (pid = w.stop_pid && pslot = w.stop_slot) then None
      else begin
        cross w Node_record.Kind_down "a Down border";
        set_frame w top w.at_pid w.r.next_sibling w.r.parent;
        forward w
      end
  end

let rec next_down w =
  if w.depth = 0 then None
  else
    match forward w with
    | Some _ as emitted -> emitted
    | None ->
      w.depth <- w.depth - 3;
      next_down w

(* The mirror of [forward] over the one frame of a preceding-sibling
   walk: a Down stands for a remote run that precedes, walked backwards
   from its last entry; at the head of a run, the walk continues before
   the run's Down. *)
let rec backward w =
  let pid = w.stack.(0) and slot = w.stack.(1) and pslot = w.stack.(2) in
  if slot >= 0 then begin
    match load w ~emit:true pid slot with
    | Some _ as emitted ->
      set_frame w 0 pid w.r.prev_sibling w.r.parent;
      emitted
    | None ->
      if w.r.kind <> Node_record.Kind_down then unexpected w "a core or a Down border";
      cross w Node_record.Kind_up "an Up border";
      set_frame w 0 w.at_pid w.r.last_child w.at_slot;
      backward w
  end
  else if pslot < 0 then None
  else begin
    ignore (load w ~emit:false pid pslot);
    match w.r.kind with
    | Node_record.Kind_core -> None (* true start of the children list *)
    | Node_record.Kind_down -> unexpected w "a core or an Up border"
    | Node_record.Kind_up ->
      cross w Node_record.Kind_down "a Down border";
      set_frame w 0 w.at_pid w.r.prev_sibling w.r.parent;
      backward w
  end

(* Load the context core [id] into the registers. *)
let load_context w (id : Node_id.t) =
  ignore (load w ~emit:false id.pid id.slot);
  if w.r.kind <> Node_record.Kind_core then context_error ()

(* The parent of core [pid.slot]: the core in its parent slot, or, when
   an Up anchors it, the run's owner. *)
let parent_of w pid slot =
  load_context w (Node_id.make ~pid ~slot);
  if w.r.parent < 0 then None
  else
    match load w ~emit:true pid w.r.parent with
    | Some _ as parent -> parent
    | None -> (
      if w.r.kind <> Node_record.Kind_up then unexpected w "a core or an Up border";
      match load w ~emit:true w.r.owner_pid w.r.owner_slot with
      | Some _ as owner -> owner
      | None -> unexpected w "a core")

let global_axis t axis (id : Node_id.t) =
  match (axis : Axis.t) with
  | Self ->
    let fired = ref false in
    fun () ->
      if !fired then None
      else begin
        fired := true;
        context_info t id
      end
  | Child | Descendant | Following_sibling ->
    let w = walker t ~descend:(axis = Descendant) in
    load_context w id;
    if axis = Following_sibling then push w id.pid w.r.next_sibling w.r.parent
    else push w id.pid w.r.first_child id.slot;
    fun () -> next_down w
  | Descendant_or_self ->
    let w = walker t ~descend:true in
    load_context w id;
    push w id.pid w.r.first_child id.slot;
    let self_pending = ref true in
    fun () ->
      if !self_pending then begin
        self_pending := false;
        context_info t id
      end
      else next_down w
  | Parent ->
    let w = walker t ~descend:false in
    let fired = ref false in
    fun () ->
      if !fired then None
      else begin
        fired := true;
        parent_of w id.pid id.slot
      end
  | Ancestor | Ancestor_or_self ->
    let w = walker t ~descend:false in
    let current = ref (Some id) in
    let self_pending = ref (axis = Ancestor_or_self) in
    fun () ->
      if !self_pending then begin
        self_pending := false;
        context_info t id
      end
      else begin
        match !current with
        | None -> None
        | Some node ->
          let parent = parent_of w node.pid node.slot in
          current := Option.map (fun i -> i.id) parent;
          parent
      end
  | Preceding_sibling ->
    let w = walker t ~descend:false in
    load_context w id;
    push w id.pid w.r.prev_sibling w.r.parent;
    fun () -> backward w

let global_count t axis id =
  let next = global_axis t axis id in
  let rec go n = match next () with None -> n | Some _ -> go (n + 1) in
  go 0

let global_resume t axis (up_id : Node_id.t) =
  check_downward axis;
  (* Descendants: the run's nodes and all their descendants; Child: only
     this run — the walk stops at the run's own Up instead of resuming
     past its Down (those siblings were enumerated in the cluster the
     crossing came from). *)
  let w = walker t ~descend:(axis <> Axis.Child) in
  w.stop_pid <- up_id.pid;
  w.stop_slot <- up_id.slot;
  ignore (load w ~emit:false up_id.pid up_id.slot);
  if w.r.kind <> Node_record.Kind_up then
    invalid_arg "Store.global_resume: entry is not an Up border";
  match (axis : Axis.t) with
  | Self -> fun () -> None
  | Child | Descendant | Descendant_or_self ->
    push w up_id.pid w.r.first_child up_id.slot;
    fun () -> next_down w
  | Parent | Ancestor | Ancestor_or_self | Following_sibling | Preceding_sibling ->
    assert false (* excluded by check_downward *)
