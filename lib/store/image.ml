module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Tag = Xnav_xml.Tag
module Ordpath = Xnav_xml.Ordpath

exception Corrupt of string

let magic = "XNAVIMG3"

(* --- encoding helpers -------------------------------------------------- *)

let add_u32 buf v =
  if v < 0 then invalid_arg "Image: negative integer";
  Buffer.add_int32_le buf (Int32.of_int v)

let add_float buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let add_string buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

type reader = { data : string; mutable pos : int }

let need r n = if r.pos + n > String.length r.data then raise (Corrupt "truncated image")

let read_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.data r.pos) in
  r.pos <- r.pos + 4;
  if v < 0 then raise (Corrupt "negative field");
  v

(* A count of items that take at least one byte each. *)
let read_count r =
  let n = read_u32 r in
  need r n;
  n

let read_float r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let read_string r =
  let n = read_u32 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* An ORDPATH label: varints, so [Ordpath.decode] is bounded by hand. *)
let read_label r =
  match Ordpath.decode r.data r.pos with
  | label, next ->
    r.pos <- next;
    label
  | exception Invalid_argument _ -> raise (Corrupt "truncated image")

(* Per class: its root-first tag sequence, then its entries as
   (pid, slot, label). Classes are listed in id order. *)
let add_partition buf p =
  add_u32 buf (Path_partition.class_count p);
  for c = 0 to Path_partition.class_count p - 1 do
    let seq = Path_partition.class_sequence p c in
    add_u32 buf (Array.length seq);
    Array.iter (fun tag -> add_string buf (Tag.to_string tag)) seq;
    let labels = Path_partition.class_labels p c in
    add_u32 buf (Array.length labels);
    Array.iteri
      (fun i (id : Node_id.t) ->
        add_u32 buf id.Node_id.pid;
        add_u32 buf id.Node_id.slot;
        Ordpath.encode buf labels.(i))
      (Path_partition.class_entries p c)
  done

let read_partition r =
  let classes =
    Array.init (read_count r) (fun _ ->
        let seq = Array.init (read_count r) (fun _ -> Tag.of_string (read_string r)) in
        let entries =
          Array.init (read_count r) (fun _ ->
              let pid = read_u32 r in
              let slot = read_u32 r in
              (Node_id.make ~pid ~slot, read_label r))
        in
        (seq, entries))
  in
  try
    Path_partition.make ~sequences:(Array.map fst classes)
      ~entries:(Array.map (fun (_, e) -> Array.map fst e) classes)
      ~labels:(Array.map (fun (_, e) -> Array.map snd e) classes)
  with Invalid_argument msg -> raise (Corrupt msg)

(* --- save ---------------------------------------------------------------- *)

let save path stores =
  (match stores with
  | [] -> invalid_arg "Image.save: no stores"
  | first :: rest ->
    let disk = Buffer_manager.disk (Store.buffer first) in
    if
      List.exists (fun s -> Buffer_manager.disk (Store.buffer s) != disk) rest
    then invalid_arg "Image.save: stores live on different disks");
  let disk = Buffer_manager.disk (Store.buffer (List.hd stores)) in
  let config = Disk.config disk in
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf magic;
  add_u32 buf config.Disk.page_size;
  add_float buf config.Disk.seek_base;
  add_float buf config.Disk.seek_factor;
  add_float buf config.Disk.seek_max;
  add_float buf config.Disk.rotational;
  add_float buf config.Disk.transfer;
  add_float buf config.Disk.async_overhead;
  add_u32 buf (Disk.page_count disk);
  for pid = 0 to Disk.page_count disk - 1 do
    let page = Disk.read disk pid in
    Buffer.add_bytes buf page;
    Disk.recycle disk page
  done;
  Disk.reset_clock disk;
  add_u32 buf (List.length stores);
  List.iter
    (fun store ->
      add_u32 buf (Node_id.cluster (Store.root store));
      add_u32 buf (Store.root store).Node_id.slot;
      add_u32 buf (Store.first_page store);
      add_u32 buf (Store.page_count store);
      add_u32 buf (Store.node_count store);
      add_u32 buf (Store.height store);
      add_partition buf (Store.partition store))
    stores;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

(* --- load ----------------------------------------------------------------- *)

(* The fewest bytes a catalog entry takes: six u32 fields and the
   partition's class count. *)
let catalog_entry_min = 7 * 4

let load ?(capacity = 1000) ?policy path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let r = { data; pos = 0 } in
  need r (String.length magic);
  if String.sub data 0 (String.length magic) <> magic then raise (Corrupt "bad magic");
  r.pos <- String.length magic;
  let page_size = read_u32 r in
  let seek_base = read_float r in
  let seek_factor = read_float r in
  let seek_max = read_float r in
  let rotational = read_float r in
  let transfer = read_float r in
  let async_overhead = read_float r in
  let config =
    { Disk.page_size; seek_base; seek_factor; seek_max; rotational; transfer; async_overhead }
  in
  if page_size = 0 then raise (Corrupt "zero page size");
  let disk = Disk.create ~config () in
  (* Both counts are checked against the bytes left before anything is
     allocated for them. *)
  let pages = read_u32 r in
  need r (pages * page_size);
  for _ = 1 to pages do
    Disk.write_string disk (Disk.alloc disk) r.data r.pos;
    r.pos <- r.pos + page_size
  done;
  Disk.reset_clock disk;
  let buffer = Buffer_manager.create ~capacity ?policy disk in
  let stores = read_u32 r in
  need r (stores * catalog_entry_min);
  List.init stores (fun _ -> ())
  |> List.map (fun () ->
         let root_pid = read_u32 r in
         let root_slot = read_u32 r in
         let root = Node_id.make ~pid:root_pid ~slot:root_slot in
         let first_page = read_u32 r in
         let page_count = read_u32 r in
         let node_count = read_u32 r in
         let height = read_u32 r in
         if first_page + page_count > pages then raise (Corrupt "catalog exceeds disk");
         let partition = read_partition r in
         Store.attach_meta ~partition buffer ~root ~first_page ~page_count ~node_count ~height)
