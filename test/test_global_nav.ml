(* Border-transparent global navigation ({!Store.global_axis},
   {!Store.global_resume}): the buffer and disk trace every axis leaves
   on a worn multi-page store, pinned so that a rewrite of the record
   access path must reproduce it exactly; what a warm walk allocates;
   typed errors on malformed records; and the NodeID duplicate filter
   the Simple plan dedups with. *)

module Tag = Xnav_xml.Tag
module Tree = Xnav_xml.Tree
module Axis = Xnav_xml.Axis
module Ordpath = Xnav_xml.Ordpath
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Node_id = Xnav_store.Node_id
module Node_record = Xnav_store.Node_record
module Store = Xnav_store.Store
module Update = Xnav_store.Update

let check = Alcotest.check

(* A 48-bit LCG (drand48 constants), so the wear and the context sample
   do not depend on the standard library's Random algorithm. *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := ((!s * 0x5DEECE66D) + 0xB) land 0xffff_ffff_ffff;
    (!s lsr 17) mod bound

let drain next =
  let rec go acc = match next () with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let ids_of next = List.map (fun (i : Store.info) -> i.Store.id) (drain next)

let all_nodes store =
  Array.of_list (ids_of (Store.global_axis store Axis.Descendant_or_self (Store.root store)))

(* A store spread over many 512-byte pages behind a 6-frame pool, worn
   by seeded inserts (first, last and mid-chain positions) and subtree
   deletes, so that overflow runs — some of them mid-chain, with
   [continues] set — sit between the imported ones. *)
let worn_store () =
  let rand = lcg 1405 in
  let tags = [| "a"; "b"; "c"; "d" |] in
  let rec build depth =
    let kids = if depth >= 5 then 0 else if depth = 0 then 20 + rand 20 else rand 5 in
    let children = List.init kids (fun _ -> build (depth + 1)) in
    Tree.make (Tag.of_string tags.(rand 4)) children
  in
  let store, _ = Gen.import_store ~payload:300 ~capacity:6 (build 0) in
  for _ = 1 to 200 do
    let live = all_nodes store in
    let n = Array.length live in
    if rand 4 = 0 && n > 1 then ignore (Update.delete_subtree store live.(1 + rand (n - 1)))
    else begin
      (* Inserts crowd the first few nodes' pages until they overflow. *)
      let parent = live.(rand (min n 6)) in
      let kids = Array.of_list (ids_of (Store.global_axis store Axis.Child parent)) in
      let position =
        match rand 3 with
        | 0 -> Update.First
        | 1 when Array.length kids > 0 -> Update.After kids.(rand (Array.length kids))
        | _ -> Update.Last
      in
      ignore (Update.insert_element store ~parent ~position (Tag.of_string tags.(rand 4)))
    end
  done;
  store

(* Every Up record of the store, in (pid, slot) order, and how many of
   them anchor a mid-chain run. *)
let up_records store =
  let ups = ref [] and continuing = ref 0 in
  for pid = Store.first_page store to Store.first_page store + Store.page_count store - 1 do
    let view = Store.view store pid in
    List.iter
      (fun slot ->
        (match Store.get view slot with
        | Node_record.Up { continues = true; _ } -> incr continuing
        | _ -> ());
        ups := Store.id_of view slot :: !ups)
      (Gen.up_slots view);
    Store.release store view
  done;
  (List.rev !ups, !continuing)

(* One line per drained axis: buffer lookups/hits/misses, disk reads, a
   digest of the disk read trace and a digest of the emitted
   (id, tag, ORDPATH) sequence. Tags are rendered by name: interned ids
   depend on which tests ran first. *)
let trace_line store label drains =
  let buffer = Store.buffer store in
  let disk = Buffer_manager.disk buffer in
  let b0 = Buffer_manager.stats buffer and d0 = Disk.stats disk in
  Disk.set_trace disk true;
  let out = Buffer.create 4096 in
  List.iter
    (fun next ->
      List.iter
        (fun (i : Store.info) ->
          Printf.bprintf out "%s %s %s;" (Node_id.to_string i.Store.id)
            (Tag.to_string i.Store.tag) (Ordpath.to_string i.Store.ordpath))
        (drain (next ())))
    drains;
  let reads = Disk.trace disk in
  Disk.set_trace disk false;
  let b1 = Buffer_manager.stats buffer and d1 = Disk.stats disk in
  let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12 in
  Printf.sprintf "%s lookups=%d hits=%d misses=%d reads=%d trace=%s nodes=%s" label
    (b1.Buffer_manager.lookups - b0.Buffer_manager.lookups)
    (b1.Buffer_manager.hits - b0.Buffer_manager.hits)
    (b1.Buffer_manager.misses - b0.Buffer_manager.misses)
    (d1.Disk.reads - d0.Disk.reads)
    (digest (String.concat "," (List.map string_of_int reads)))
    (digest (Buffer.contents out))

(* Recorded before global navigation parsed records in place. *)
let pinned_trace =
  [
    "self lookups=40 hits=3 misses=37 reads=37 trace=7e9bc0c186ba nodes=d8add35453e0";
    "child lookups=150 hits=96 misses=54 reads=54 trace=35a35898ee04 nodes=ec7cb3f00341";
    "descendant lookups=388 hits=311 misses=77 reads=77 trace=2b9f06ba5251 nodes=e2d38e51eeca";
    "descendant-or-self lookups=428 hits=351 misses=77 reads=77 trace=2b9f06ba5251 \
     nodes=6fdabdb62eba";
    "parent lookups=102 hits=45 misses=57 reads=57 trace=65919e2bf752 nodes=6ac67d9125ca";
    "ancestor lookups=466 hits=357 misses=109 reads=109 trace=91480ab74e71 nodes=e024079c25f7";
    "ancestor-or-self lookups=506 hits=397 misses=109 reads=109 trace=91480ab74e71 \
     nodes=3eedfaf98021";
    "following-sibling lookups=230 hits=155 misses=75 reads=75 trace=385f782d955c \
     nodes=fe5d12934841";
    "preceding-sibling lookups=203 hits=131 misses=72 reads=72 trace=1a2ceb94f450 \
     nodes=f04a3c3b19a7";
    "resume self lookups=273 hits=97 misses=176 reads=176 trace=d3866d5a78f5 nodes=d41d8cd98f00";
    "resume child lookups=2463 hits=2010 misses=453 reads=453 trace=6e0815fb6438 \
     nodes=ce5f8833e92a";
    "resume descendant lookups=20198 hits=17831 misses=2367 reads=2367 trace=2e7948605f02 \
     nodes=c1c2ceb6bd05";
    "resume descendant-or-self lookups=20198 hits=17831 misses=2367 reads=2367 \
     trace=2e7948605f02 nodes=c1c2ceb6bd05";
  ]

let trace_tests =
  [
    Alcotest.test_case "buffer and disk trace of every axis on a worn store" `Quick (fun () ->
        let store = worn_store () in
        let ups, continuing = up_records store in
        check Alcotest.bool "mid-chain runs exist" true (continuing > 0);
        let live = all_nodes store in
        let rand = lcg 77 in
        let contexts = List.init 40 (fun _ -> live.(rand (Array.length live))) in
        let forward =
          List.map
            (fun axis ->
              trace_line store (Axis.to_string axis)
                (List.map (fun id () -> Store.global_axis store axis id) contexts))
            Axis.all
        in
        let resumed =
          List.map
            (fun axis ->
              trace_line store
                ("resume " ^ Axis.to_string axis)
                (List.map (fun up () -> Store.global_resume store axis up) ups))
            [ Axis.Self; Axis.Child; Axis.Descendant; Axis.Descendant_or_self ]
        in
        check (Alcotest.list Alcotest.string) "per-axis trace" pinned_trace (forward @ resumed);
        check Alcotest.int "no pins left" 0 (Buffer_manager.pinned_count (Store.buffer store)));
  ]

(* The Simple plan's per-node cost: a warm descendant walk over the
   XMark sf 0.1 document parses each record in place, so what it
   allocates per node is the emitted info (id, ORDPATH, option) plus the
   walker's bookkeeping — not a decoded copy of every record it reads. *)
let allocation_tests =
  [
    Alcotest.test_case "a warm descendant walk allocates at most 64 words per node" `Quick
      (fun () ->
        let doc =
          Xnav_xmark.Gen.generate
            ~config:{ Xnav_xmark.Gen.default_config with scale = 0.1; fidelity = 0.05 }
            ()
        in
        let disk = Disk.create () in
        let import = Xnav_store.Import.run disk doc in
        let store = Store.attach (Buffer_manager.create ~capacity:1000 disk) import in
        let walk () = Store.global_count store Axis.Descendant_or_self (Store.root store) in
        let nodes = walk () in
        let before = Gc.minor_words () in
        ignore (walk ());
        let words = (Gc.minor_words () -. before) /. float_of_int nodes in
        check Alcotest.int "every node visited" (Tree.size doc) nodes;
        check Alcotest.bool
          (Printf.sprintf "%.1f minor words per node <= 64" words)
          true (words <= 64.0));
  ]

(* --- Malformed records ------------------------------------------------------- *)

(* The first record of the store satisfying [pick], with its NodeID. *)
let find_record store pick =
  let found = ref None in
  for pid = Store.first_page store to Store.first_page store + Store.page_count store - 1 do
    if !found = None then begin
      let view = Store.view store pid in
      Store.iter_records view (fun slot record ->
          if !found = None && pick record then found := Some (Store.id_of view slot, record));
      Store.release store view
    end
  done;
  match !found with Some r -> r | None -> Alcotest.fail "no such record"

let error_tests =
  [
    Alcotest.test_case "a Down aimed at a core raises a typed error and leaks no pin" `Quick
      (fun () ->
        let store, _ = Gen.import_store ~payload:250 (Gen.wide_tree ~children:80 ()) in
        let down_id, down =
          match find_record store (function Node_record.Down _ -> true | _ -> false) with
          | id, Node_record.Down d -> (id, d)
          | _ -> assert false
        in
        (* Aim it at the root, a core, in the resident copy of its page. *)
        let bogus = Store.root store in
        let buffer = Store.buffer store in
        let frame = Buffer_manager.fix buffer down_id.Node_id.pid in
        let rewritten =
          Xnav_storage.Page.replace (Buffer_manager.page frame) down_id.Node_id.slot
            (Node_record.encode (Node_record.Down { down with target = bogus }))
        in
        Buffer_manager.unfix buffer frame;
        check Alcotest.bool "rewritten in place" true rewritten;
        (match Store.global_count store Axis.Descendant (Store.root store) with
        | exception Invalid_argument msg ->
          check Alcotest.bool ("names the record: " ^ msg) true
            (Gen.contains msg (Node_id.to_string bogus));
          check Alcotest.bool ("names the expected kind: " ^ msg) true (Gen.contains msg "Up")
        | _ -> Alcotest.fail "expected Invalid_argument");
        check Alcotest.int "no pins left" 0 (Buffer_manager.pinned_count buffer));
    Alcotest.test_case "every axis rejects a border context with one message" `Quick (fun () ->
        let store, _ = Gen.import_store ~payload:250 (Gen.wide_tree ~children:80 ()) in
        let up, _ = find_record store (function Node_record.Up _ -> true | _ -> false) in
        List.iter
          (fun axis ->
            match drain (Store.global_axis store axis up) with
            | exception Invalid_argument msg ->
              check Alcotest.string (Axis.to_string axis)
                "Store.global_axis: context is a border record" msg
            | _ -> Alcotest.failf "%s: expected Invalid_argument" (Axis.to_string axis))
          Axis.all;
        check Alcotest.int "no pins left" 0
          (Buffer_manager.pinned_count (Store.buffer store)));
  ]

(* --- Duplicate filter --------------------------------------------------------- *)

let seen_tests =
  [
    Alcotest.test_case "Seen agrees with a set over ids spread across pages" `Quick (fun () ->
        let rand = lcg 9 in
        let seen = Node_id.Seen.create () in
        let model = ref Node_id.Set.empty in
        for _ = 1 to 5000 do
          let pid = rand 40 in
          let id = Node_id.make ~pid ~slot:(rand (1 + rand 600)) in
          let fresh = not (Node_id.Set.mem id !model) in
          model := Node_id.Set.add id !model;
          check Alcotest.bool (Node_id.to_string id) fresh (Node_id.Seen.add seen id)
        done);
  ]

let suite = [ ("store.global", trace_tests @ allocation_tests @ error_tests @ seen_tests) ]
