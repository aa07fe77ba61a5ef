type t = { bytes : Bytes.t }

let header_size = 4
let slot_entry_size = 4
let free_sentinel = 0xffff

let get_u16 page off = Bytes.get_uint16_le page.bytes off
let set_u16 page off v = Bytes.set_uint16_le page.bytes off v

let slot_count page = get_u16 page 0
let set_slot_count page n = set_u16 page 0 n
let free_off page = get_u16 page 2
let set_free_off page off = set_u16 page 2 off
let page_size page = Bytes.length page.bytes

let entry_pos page slot = page_size page - ((slot + 1) * slot_entry_size)
let slot_offset page slot = get_u16 page (entry_pos page slot)
let slot_length page slot = get_u16 page (entry_pos page slot + 2)

let set_entry page slot ~offset ~length =
  set_u16 page (entry_pos page slot) offset;
  set_u16 page (entry_pos page slot + 2) length

let create ~page_size =
  if page_size < 16 || page_size > 65535 then invalid_arg "Page.create: bad page size";
  let page = { bytes = Bytes.make page_size '\000' } in
  set_slot_count page 0;
  set_free_off page header_size;
  page

let of_bytes bytes = { bytes }
let to_bytes page = page.bytes

let dir_start page = page_size page - (slot_count page * slot_entry_size)

let free_space page =
  let contiguous = dir_start page - free_off page in
  max 0 (contiguous - slot_entry_size)

let check_slot page slot =
  if slot < 0 || slot >= slot_count page then
    invalid_arg (Printf.sprintf "Page: slot %d out of range" slot)

let mem page slot =
  slot >= 0 && slot < slot_count page && slot_offset page slot <> free_sentinel

let get page slot =
  check_slot page slot;
  let offset = slot_offset page slot in
  if offset = free_sentinel then invalid_arg (Printf.sprintf "Page.get: slot %d is free" slot);
  Bytes.sub_string page.bytes offset (slot_length page slot)

let record_offset page slot =
  check_slot page slot;
  let offset = slot_offset page slot in
  if offset = free_sentinel then
    invalid_arg (Printf.sprintf "Page.record_offset: slot %d is free" slot);
  offset

let record_byte page slot =
  check_slot page slot;
  let offset = slot_offset page slot in
  if offset = free_sentinel then
    invalid_arg (Printf.sprintf "Page.record_byte: slot %d is free" slot);
  Bytes.get page.bytes offset

let iter f page =
  for slot = 0 to slot_count page - 1 do
    if slot_offset page slot <> free_sentinel then f slot (get page slot)
  done

let live_bytes page =
  let total = ref 0 in
  for slot = 0 to slot_count page - 1 do
    if slot_offset page slot <> free_sentinel then total := !total + slot_length page slot
  done;
  !total

let used_bytes page =
  header_size + live_bytes page + (slot_count page * slot_entry_size)

let compact page =
  let live = ref [] in
  for slot = slot_count page - 1 downto 0 do
    if slot_offset page slot <> free_sentinel then live := (slot, get page slot) :: !live
  done;
  set_free_off page header_size;
  let place (slot, record) =
    let offset = free_off page in
    Bytes.blit_string record 0 page.bytes offset (String.length record);
    set_entry page slot ~offset ~length:(String.length record);
    set_free_off page (offset + String.length record)
  in
  List.iter place !live

(* First freed slot available for reuse, if any. *)
let find_free_slot page =
  let n = slot_count page in
  let rec go slot =
    if slot >= n then None
    else if slot_offset page slot = free_sentinel then Some slot
    else go (slot + 1)
  in
  go 0

let next_slot page = match find_free_slot page with Some slot -> slot | None -> slot_count page

let fits page length =
  let dir_cost = if find_free_slot page = None then slot_entry_size else 0 in
  page_size page - used_bytes page >= length + dir_cost

let insert page record =
  let length = String.length record in
  let reused = find_free_slot page in
  let dir_cost = if reused = None then slot_entry_size else 0 in
  let contiguous () = dir_start page - free_off page in
  if contiguous () < length + dir_cost then compact page;
  if contiguous () < length + dir_cost then None
  else begin
    let slot =
      match reused with
      | Some slot -> slot
      | None ->
        let slot = slot_count page in
        set_slot_count page (slot + 1);
        slot
    in
    let offset = free_off page in
    Bytes.blit_string record 0 page.bytes offset length;
    set_entry page slot ~offset ~length;
    set_free_off page (offset + length);
    Some slot
  end

let delete page slot =
  check_slot page slot;
  if slot_offset page slot = free_sentinel then
    invalid_arg (Printf.sprintf "Page.delete: slot %d already free" slot);
  set_entry page slot ~offset:free_sentinel ~length:0

let replace page slot record =
  check_slot page slot;
  let old_offset = slot_offset page slot in
  if old_offset = free_sentinel then
    invalid_arg (Printf.sprintf "Page.replace: slot %d is free" slot);
  let old_length = slot_length page slot in
  let length = String.length record in
  if length <= old_length then begin
    Bytes.blit_string record 0 page.bytes old_offset length;
    set_entry page slot ~offset:old_offset ~length;
    true
  end
  else begin
    (* Stash the old content: freeing the slot lets [compact] reclaim its
       space, and on failure we restore it (its length fits for sure). *)
    let old_record = get page slot in
    set_entry page slot ~offset:free_sentinel ~length:0;
    let contiguous () = dir_start page - free_off page in
    if contiguous () < length then compact page;
    let chosen, ok =
      if contiguous () < length then (old_record, false) else (record, true)
    in
    let offset = free_off page in
    Bytes.blit_string chosen 0 page.bytes offset (String.length chosen);
    set_entry page slot ~offset ~length:(String.length chosen);
    set_free_off page (offset + String.length chosen);
    ok
  end
