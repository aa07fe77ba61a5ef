(* Disk-image persistence: save/load must round-trip documents,
   queries and catalog metadata exactly. *)

module Tree = Xnav_xml.Tree
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Image = Xnav_store.Image
module Export = Xnav_store.Export
module Update = Xnav_store.Update
module Buffer_manager = Xnav_storage.Buffer_manager
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let temp_path = Filename.temp_file "xnav_image" ".xnav"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The partition [store] carries after a save and load. *)
let loaded_partition store =
  Image.save temp_path [ store ];
  match Image.load temp_path with
  | [ loaded ] -> Store.partition loaded
  | _ -> Alcotest.fail "expected one store"

let tests =
  [
    Alcotest.test_case "round-trips a document" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, _ = Gen.import_store ~payload:200 doc in
        Image.save temp_path [ store ];
        (match Image.load ~capacity:16 temp_path with
        | [ loaded ] ->
          check bool "tree equal" true (Tree.equal doc (Export.document loaded));
          check int "node count" (Store.node_count store) (Store.node_count loaded);
          check int "pages" (Store.page_count store) (Store.page_count loaded);
          check bool "tags kept" true (Store.tag_counts loaded = Store.tag_counts store)
        | _ -> Alcotest.fail "expected one store"));
    Alcotest.test_case "queries agree before and after persistence" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:60 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        Image.save temp_path [ store ];
        let loaded = List.hd (Image.load ~capacity:32 temp_path) in
        let path = Xpath_parser.parse "//b/x" in
        List.iter
          (fun plan ->
            check int (Plan.name plan) (Eval_ref.count doc path)
              (Exec.cold_run ~ordered:false loaded path plan).Exec.count)
          [ Plan.simple; Plan.xschedule (); Plan.xscan () ]);
    Alcotest.test_case "multiple documents share one image" `Quick (fun () ->
        let disk = Gen.small_disk ~page_size:512 () in
        let i1 = Import.run disk (Gen.sample_doc ()) in
        let i2 = Import.run disk (Gen.deep_tree ~depth:20 ()) in
        let buffer = Buffer_manager.create ~capacity:16 disk in
        let s1 = Store.attach buffer i1 and s2 = Store.attach buffer i2 in
        Image.save temp_path [ s1; s2 ];
        (match Image.load ~capacity:16 temp_path with
        | [ l1; l2 ] ->
          check bool "doc1" true (Tree.equal (Gen.sample_doc ()) (Export.document l1));
          check bool "doc2" true (Tree.equal (Gen.deep_tree ~depth:20 ()) (Export.document l2))
        | _ -> Alcotest.fail "expected two stores"));
    Alcotest.test_case "updates made before save survive" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, _ = Gen.import_store ~payload:200 doc in
        ignore
          (Update.insert_tree store ~parent:(Store.root store)
             (Tree.elt "patch" [ Tree.elt "leaf" [] ]));
        Image.save temp_path [ store ];
        let loaded = List.hd (Image.load temp_path) in
        let exported = Export.document loaded in
        check int "children" (Array.length doc.Tree.children + 1)
          (Array.length exported.Tree.children);
        check int "node count" (Tree.size doc + 2) (Store.node_count loaded));
    Alcotest.test_case "a loaded store accepts further updates" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, _ = Gen.import_store ~payload:200 doc in
        Image.save temp_path [ store ];
        let loaded = List.hd (Image.load temp_path) in
        ignore (Update.insert_element loaded ~parent:(Store.root loaded) (Xnav_xml.Tag.of_string "late"));
        check int "grown" (Tree.size doc + 1) (Store.node_count loaded));
    Alcotest.test_case "the path partition round-trips through the codec" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:60 () in
        let store, import = Gen.import_store ~payload:220 doc in
        let partition = import.Import.partition in
        let decoded = loaded_partition store in
        check bool "decoded partition equals the original" true
          (Xnav_store.Path_partition.equal partition decoded);
        check (Alcotest.list int) "live counts cover every node" [ Tree.size doc ]
          (Array.to_list
             (Xnav_store.Path_partition.step_counts decoded
                [ Xnav_xpath.Path.descendant_or_self_any ])));
    Alcotest.test_case "the partition maps every entry id back to its class" `Quick (fun () ->
        let module Path_partition = Xnav_store.Path_partition in
        let doc = Gen.wide_tree ~children:60 () in
        let store, import = Gen.import_store ~payload:220 doc in
        let decoded = loaded_partition store in
        List.iter
          (fun p ->
            let class_of (id : Xnav_store.Node_id.t) =
              Path_partition.class_at p ~pid:id.Xnav_store.Node_id.pid
                ~slot:id.Xnav_store.Node_id.slot
            in
            for c = 0 to Path_partition.class_count p - 1 do
              Array.iter
                (fun id -> check int "entry maps to its class" c (class_of id))
                (Path_partition.class_entries p c)
            done;
            (* Border records are no entries, nor are ids off the pages
               and slots the document uses. *)
            let borders = ref 0 in
            for pid = Store.first_page store to Store.first_page store + Store.page_count store - 1 do
              let view = Store.view store pid in
              List.iter
                (fun slot ->
                  incr borders;
                  check int "an Up border maps to none" (-1) (class_of (Store.id_of view slot)))
                (Gen.up_slots view);
              Store.release store view
            done;
            check bool "the document has Up borders" true (!borders > 0);
            let last = Store.first_page store + Store.page_count store in
            List.iter
              (fun (pid, slot) ->
                check int "a foreign id maps to none" (-1) (Path_partition.class_at p ~pid ~slot))
              [ (-1, 0); (last, 0); (Store.first_page store, 1_000_000); (Store.first_page store, -1) ])
          [ import.Import.partition; decoded ]);
    Alcotest.test_case "a mutated store's partition survives persistence" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:60 () in
        let store, import = Gen.import_store ~payload:220 doc in
        (* Delete a [b], then insert a [b] and a never-seen [novel] under
           the root: the insert may reuse the freed slot. *)
        let victim = import.Import.node_ids.(doc.Tree.children.(1).Tree.preorder) in
        ignore (Update.delete_subtree store victim);
        let root = Store.root store in
        ignore (Update.insert_element store ~parent:root (Xnav_xml.Tag.of_string "b"));
        ignore (Update.insert_element store ~parent:root (Xnav_xml.Tag.of_string "novel"));
        Image.save temp_path [ store ];
        let loaded = List.hd (Image.load ~capacity:32 temp_path) in
        check bool "loaded partition equals the mutated one" true
          (Xnav_store.Path_partition.equal (Store.partition store) (Store.partition loaded));
        check bool "tags kept" true (Store.tag_counts loaded = Store.tag_counts store);
        (* The index serves the loaded store, the updates included. *)
        let exported = Export.document loaded in
        List.iter
          (fun p ->
            let path = Xpath_parser.parse p in
            let r = Exec.cold_run ~ordered:false loaded path (Plan.xindex ()) in
            check int ("covering index: " ^ p) (Eval_ref.count exported path) r.Exec.count;
            check bool ("served from the entries: " ^ p) true
              (r.Exec.metrics.Exec.index_entries > 0))
          [ "/b/x"; "/b"; "/novel" ]);
    Alcotest.test_case "corrupt images are rejected" `Quick (fun () ->
        let oc = open_out_bin temp_path in
        output_string oc "NOTANIMAGE-----";
        close_out oc;
        (match Image.load temp_path with
        | exception Image.Corrupt _ -> ()
        | _ -> Alcotest.fail "expected Corrupt");
        let oc = open_out_bin temp_path in
        output_string oc "XNAVIMG3";
        close_out oc;
        match Image.load temp_path with
        | exception Image.Corrupt _ -> ()
        | _ -> Alcotest.fail "expected Corrupt on truncation");
    Alcotest.test_case "every truncation past the pages and an old version raise Corrupt" `Quick
      (fun () ->
        let store, _ = Gen.import_store ~payload:200 (Gen.sample_doc ()) in
        Image.save temp_path [ store ];
        let image = read_file temp_path in
        (* Magic, page size, six cost floats, page count, the pages. *)
        let disk = Buffer_manager.disk (Store.buffer store) in
        let pages_end = 8 + 4 + (6 * 8) + 4 + (Xnav_storage.Disk.page_count disk * 512) in
        check bool "the catalog follows the pages" true (String.length image > pages_end + 4);
        let load_bytes bytes =
          write_file temp_path bytes;
          Image.load temp_path
        in
        for len = pages_end to String.length image - 1 do
          match load_bytes (String.sub image 0 len) with
          | exception Image.Corrupt _ -> ()
          | exception e ->
            Alcotest.failf "truncated to %d of %d bytes: %s" len (String.length image)
              (Printexc.to_string e)
          | _ -> Alcotest.failf "truncated to %d of %d bytes: loaded" len (String.length image)
        done;
        List.iter
          (fun magic ->
            match load_bytes (magic ^ String.sub image 8 (String.length image - 8)) with
            | exception Image.Corrupt _ -> ()
            | _ -> Alcotest.failf "an %s image must be rejected" magic)
          [ "XNAVIMG1"; "XNAVIMG2" ];
        check int "the whole image loads" 1 (List.length (load_bytes image)));
    Alcotest.test_case "patched counts and a zero page size raise Corrupt" `Quick (fun () ->
        let store, _ = Gen.import_store ~payload:200 (Gen.sample_doc ()) in
        Image.save temp_path [ store ];
        let image = read_file temp_path in
        (* Page size at 8, page count at 60, the store count after the pages. *)
        let disk = Buffer_manager.disk (Store.buffer store) in
        let pages_end = 64 + (Xnav_storage.Disk.page_count disk * 512) in
        let patched fields =
          let b = Bytes.of_string image in
          List.iter (fun (at, v) -> Bytes.set_int32_le b at (Int32.of_int v)) fields;
          write_file temp_path (Bytes.to_string b);
          let before = Gc.allocated_bytes () in
          (match Image.load temp_path with
          | exception Image.Corrupt _ -> ()
          | exception e -> Alcotest.failf "patched image: %s" (Printexc.to_string e)
          | _ -> Alcotest.fail "a patched image loaded");
          (* The image is a few KB: nothing near the patched counts. *)
          check bool "allocation bounded by the image" true
            (Gc.allocated_bytes () -. before < 16e6)
        in
        List.iter (fun n -> patched [ (60, n) ]) [ 4_000_000; 0x7fff_ffff ];
        patched [ (pages_end, 4_000_000) ];
        patched [ (8, 0) ];
        patched [ (8, 0); (60, 4_000_000) ]);
    Alcotest.test_case "save requires a shared disk" `Quick (fun () ->
        let s1, _ = Gen.import_store (Gen.sample_doc ()) in
        let s2, _ = Gen.import_store (Gen.sample_doc ()) in
        match Image.save temp_path [ s1; s2 ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* Truncations and single-byte flips of a small saved image: [load]
   returns or raises [Corrupt], nothing else. *)
let saved_image =
  lazy
    (let store, _ = Gen.import_store ~payload:200 (Gen.sample_doc ()) in
     Image.save temp_path [ store ];
     read_file temp_path)

let fuzz_props =
  [
    QCheck2.Test.make ~name:"image: truncated or flipped images raise only Corrupt" ~count:300
      QCheck2.Gen.(triple bool nat (int_range 1 255))
      ~print:(fun (flip, at, x) ->
        Printf.sprintf "%s at %d (xor %d)" (if flip then "flip" else "cut") at x)
      (fun (flip, at, x) ->
        let image = Lazy.force saved_image in
        let at = at mod String.length image in
        write_file temp_path
          (if flip then
             String.mapi (fun i c -> if i = at then Char.chr (Char.code c lxor x) else c) image
           else String.sub image 0 at);
        match Image.load temp_path with _ -> true | exception Image.Corrupt _ -> true);
  ]

let suite = [ ("image", tests); Gen.qsuite "image.fuzz" fuzz_props ]
