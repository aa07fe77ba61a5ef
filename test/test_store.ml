(* Tests for xnav_store: NodeIDs, the record codec, the clustering
   import, and both navigation layers (global and intra-cluster cursors),
   validated against the in-memory tree oracle. *)

module Tag = Xnav_xml.Tag
module Tree = Xnav_xml.Tree
module Axis = Xnav_xml.Axis
module Tree_axes = Xnav_xml.Tree_axes
module Ordpath = Xnav_xml.Ordpath
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Node_id = Xnav_store.Node_id
module Node_record = Xnav_store.Node_record
module Import = Xnav_store.Import
module Store = Xnav_store.Store

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let all_strategies = [ Import.Dfs; Import.Bfs; Import.Scattered 42 ]

(* --- Node_id -------------------------------------------------------------- *)

let node_id_tests =
  [
    Alcotest.test_case "compare orders by cluster first" `Quick (fun () ->
        let a = Node_id.make ~pid:1 ~slot:9 and b = Node_id.make ~pid:2 ~slot:0 in
        check bool "cluster order" true (Node_id.compare a b < 0);
        check int "cluster" 1 (Node_id.cluster a));
    Alcotest.test_case "set and table behave" `Quick (fun () ->
        let a = Node_id.make ~pid:1 ~slot:2 in
        let s = Node_id.Set.add a Node_id.Set.empty in
        check bool "mem" true (Node_id.Set.mem (Node_id.make ~pid:1 ~slot:2) s);
        let t = Node_id.Tbl.create 4 in
        Node_id.Tbl.replace t a 42;
        check (Alcotest.option int) "tbl" (Some 42)
          (Node_id.Tbl.find_opt t (Node_id.make ~pid:1 ~slot:2)));
  ]

(* --- Node_record codec ----------------------------------------------------- *)

let record_gen =
  let open QCheck2.Gen in
  let slot = oneof [ return None; int_range 0 1000 >|= Option.some ] in
  let node_id = pair (int_range 0 100000) (int_range 0 2000) >|= fun (pid, slot) ->
    Node_id.make ~pid ~slot
  in
  let ordpath =
    list_size (int_range 0 5) (int_range 0 40) >|= fun steps ->
    List.fold_left (fun l k -> Ordpath.child l k) Ordpath.root steps
  in
  oneof
    [
      ( ordpath >>= fun ordpath ->
        slot >>= fun parent ->
        slot >>= fun first_child ->
        slot >>= fun last_child ->
        slot >>= fun next_sibling ->
        slot >|= fun prev_sibling ->
        Node_record.Core
          {
            tag = Tag.of_string "rec";
            ordpath;
            parent;
            first_child;
            last_child;
            next_sibling;
            prev_sibling;
          } );
      ( slot >>= fun parent ->
        slot >>= fun next_sibling ->
        slot >>= fun prev_sibling ->
        node_id >|= fun target -> Node_record.Down { parent; next_sibling; prev_sibling; target }
      );
      ( slot >>= fun first_child ->
        slot >>= fun last_child ->
        node_id >>= fun target ->
        pair node_id bool >|= fun (owner, continues) ->
        Node_record.Up { first_child; last_child; target; owner; continues } );
    ]

let record_props =
  [
    QCheck2.Test.make ~name:"node_record: codec round-trip" ~count:500 record_gen
      ~print:(fun r -> Format.asprintf "%a" Node_record.pp r)
      (fun record ->
        Node_record.equal record (Node_record.decode (Node_record.encode record))
        && Node_record.encoded_size record = String.length (Node_record.encode record));
  ]

let record_tests =
  [
    Alcotest.test_case "target of a core record raises" `Quick (fun () ->
        let core =
          Node_record.Core
            {
              tag = Tag.of_string "x";
              ordpath = Ordpath.root;
              parent = None;
              first_child = None;
              last_child = None;
              next_sibling = None;
              prev_sibling = None;
            }
        in
        (match Node_record.target core with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "is_border" `Quick (fun () ->
        let down =
          Node_record.Down
            {
              parent = None;
              next_sibling = None;
              prev_sibling = None;
              target = Node_id.make ~pid:0 ~slot:0;
            }
        in
        check bool "down" true (Node_record.is_border down));
  ]

(* --- Import invariants ------------------------------------------------------ *)

let reconstruct = Gen.reconstruct

let import_tests =
  List.concat_map
    (fun strategy ->
      let name suffix = Printf.sprintf "%s: %s" (Import.strategy_to_string strategy) suffix in
      [
        Alcotest.test_case (name "reconstruction equals the original") `Quick (fun () ->
            let doc = Gen.sample_doc () in
            let store, _ = Gen.import_store ~strategy ~payload:200 doc in
            check bool "equal" true (Tree.equal doc (reconstruct store)));
        Alcotest.test_case (name "multiple clusters arise under small payloads") `Quick
          (fun () ->
            let doc = Gen.wide_tree ~children:60 () in
            let _, import = Gen.import_store ~strategy ~payload:300 doc in
            check bool "several pages" true (import.Import.page_count > 3);
            check bool "borders exist" true (import.Import.border_count > 0));
        Alcotest.test_case (name "node ids are core records") `Quick (fun () ->
            let doc = Gen.sample_doc () in
            let store, import = Gen.import_store ~strategy ~payload:200 doc in
            Array.iter
              (fun id ->
                match Store.read store id with
                | Node_record.Core _ -> ()
                | _ -> Alcotest.fail "node_ids must point at core records")
              import.Import.node_ids);
      ])
    all_strategies
  @ [
      Alcotest.test_case "single-page document has no borders" `Quick (fun () ->
          let doc = Gen.sample_doc () in
          let _, import = Gen.import_store ~page_size:4096 doc in
          check int "pages" 1 import.Import.page_count;
          check int "borders" 0 import.Import.border_count);
      Alcotest.test_case "tag_counts flow through to the store" `Quick (fun () ->
          let doc = Gen.sample_doc () in
          let store, _ = Gen.import_store doc in
          check int "A count" 4 (Store.tag_count store (Tag.of_string "A"));
          check int "missing tag" 0 (Store.tag_count store (Tag.of_string "no-such-tag")));
      Alcotest.test_case "rejects pages too small for a node" `Quick (fun () ->
          let doc = Gen.sample_doc () in
          let disk = Gen.small_disk ~page_size:64 () in
          (match Import.run disk doc with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"));
      Alcotest.test_case "two documents coexist on one disk" `Quick (fun () ->
          let disk = Gen.small_disk ~page_size:512 () in
          let i1 = Import.run disk (Gen.sample_doc ()) in
          let i2 = Import.run disk (Gen.deep_tree ~depth:30 ()) in
          check bool "disjoint pages" true
            (i2.Import.first_page >= i1.Import.first_page + i1.Import.page_count);
          let buffer = Buffer_manager.create ~capacity:16 disk in
          let s1 = Store.attach buffer i1 and s2 = Store.attach buffer i2 in
          check bool "doc1 intact" true (Tree.equal (Gen.sample_doc ()) (reconstruct s1));
          check bool "doc2 intact" true (Tree.equal (Gen.deep_tree ~depth:30 ()) (reconstruct s2)));
    ]

(* --- Global navigation vs the tree oracle ----------------------------------- *)

let drain next =
  let rec go acc = match next () with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

(* Check every axis from every node of [doc] against the oracle. *)
let check_navigation ?strategy ?payload ?page_size doc =
  let store, import = Gen.import_store ?strategy ?payload ?page_size doc in
  ignore (Tree.index doc);
  let ok = ref true in
  Tree.iter
    (fun node ->
      let id = import.Import.node_ids.(node.Tree.preorder) in
      List.iter
        (fun axis ->
          let expected =
            List.map (fun n -> n.Tree.preorder) (Tree_axes.nodes axis node)
          in
          let actual =
            List.map
              (fun (inf : Store.info) ->
                (* Recover preorder through the node_ids array. *)
                let found = ref (-1) in
                Array.iteri
                  (fun pre nid -> if Node_id.equal nid inf.id then found := pre)
                  import.Import.node_ids;
                !found)
              (drain (Store.global_axis store axis id))
          in
          if expected <> actual then ok := false)
        Axis.all)
    doc;
  !ok && Buffer_manager.pinned_count (Store.buffer store) = 0

let navigation_tests =
  List.concat_map
    (fun strategy ->
      let name suffix = Printf.sprintf "%s: %s" (Import.strategy_to_string strategy) suffix in
      [
        Alcotest.test_case (name "all axes on the sample doc") `Quick (fun () ->
            check bool "oracle match" true
              (check_navigation ~strategy ~payload:200 (Gen.sample_doc ())));
        Alcotest.test_case (name "all axes on a wide tree (run splitting)") `Quick (fun () ->
            check bool "oracle match" true
              (check_navigation ~strategy ~payload:250 (Gen.wide_tree ~children:80 ())));
        Alcotest.test_case (name "all axes on a deep tree") `Quick (fun () ->
            check bool "oracle match" true
              (check_navigation ~strategy ~payload:200 (Gen.deep_tree ~depth:40 ())));
      ])
    all_strategies

let navigation_props =
  [
    QCheck2.Test.make ~name:"store: global navigation matches the tree oracle" ~count:60
      (QCheck2.Gen.pair (Gen.tree_gen ~size:50 ()) (QCheck2.Gen.oneofl all_strategies))
      ~print:(fun (tree, strategy) ->
        Printf.sprintf "%s / %s" (Gen.tree_print tree) (Import.strategy_to_string strategy))
      (fun (tree, strategy) -> check_navigation ~strategy ~payload:180 tree);
  ]

(* --- Intra-cluster cursors + crossing resolution ----------------------------- *)

(* Evaluate one axis step the way the physical operators do: cursors on
   the context cluster, recursing into target clusters at crossings. *)
let collect_via_cursors store axis (id : Node_id.t) =
  let out = ref [] in
  let rec process view cursor =
    match Store.next_emission cursor with
    | None -> ()
    | Some (Store.Reached (slot, core)) ->
      out := (Store.id_of view slot, core.Node_record.tag) :: !out;
      process view cursor
    | Some (Store.Crossing (_slot, target)) ->
      let tview = Store.view store (Node_id.cluster target) in
      process tview (Store.resume tview axis target.Node_id.slot);
      Store.release store tview;
      process view cursor
  in
  let view = Store.view store (Node_id.cluster id) in
  process view (Store.start view axis id.Node_id.slot);
  Store.release store view;
  List.rev !out

let cursor_tests =
  [
    Alcotest.test_case "cursors reject non-downward axes" `Quick (fun () ->
        let store, import = Gen.import_store (Gen.sample_doc ()) in
        let id = import.Import.node_ids.(0) in
        let view = Store.view store (Node_id.cluster id) in
        (match Store.start view Axis.Parent id.Node_id.slot with
        | exception Invalid_argument _ -> Store.release store view
        | _ -> Alcotest.fail "expected Invalid_argument"));
    Alcotest.test_case "start on a border slot is rejected" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:80 () in
        let store, _ = Gen.import_store ~payload:250 doc in
        (* Find some page with an Up record. *)
        let found = ref false in
        for pid = Store.first_page store to Store.first_page store + Store.page_count store - 1 do
          if not !found then begin
            let view = Store.view store pid in
            (match Gen.up_slots view with
            | slot :: _ ->
              found := true;
              (match Store.start view Axis.Child slot with
              | exception Invalid_argument _ -> ()
              | _ -> Alcotest.fail "expected Invalid_argument")
            | [] -> ());
            Store.release store view
          end
        done;
        check bool "found an Up to test" true !found);
  ]

let cursor_props =
  let mk_test name axis =
    QCheck2.Test.make ~name ~count:40
      (QCheck2.Gen.pair (Gen.tree_gen ~size:50 ()) (QCheck2.Gen.oneofl all_strategies))
      ~print:(fun (tree, strategy) ->
        Printf.sprintf "%s / %s" (Gen.tree_print tree) (Import.strategy_to_string strategy))
      (fun (tree, strategy) ->
        let store, import = Gen.import_store ~strategy ~payload:180 tree in
        ignore (Tree.index tree);
        let ok = ref true in
        Tree.iter
          (fun node ->
            let id = import.Import.node_ids.(node.Tree.preorder) in
            let via_cursors = List.map fst (collect_via_cursors store axis id) in
            let via_global =
              List.map (fun (i : Store.info) -> i.id) (drain (Store.global_axis store axis id))
            in
            (* Cursor traversal resolves crossings depth-first, which for
               downward axes is exactly document order. *)
            if via_cursors <> via_global then ok := false)
          tree;
        !ok && Buffer_manager.pinned_count (Store.buffer store) = 0)
  in
  [
    mk_test "cursors+crossings = global (child)" Axis.Child;
    mk_test "cursors+crossings = global (descendant)" Axis.Descendant;
    mk_test "cursors+crossings = global (descendant-or-self)" Axis.Descendant_or_self;
    mk_test "cursors+crossings = global (self)" Axis.Self;
  ]

(* --- Store info / ordpath order ---------------------------------------------- *)

let info_tests =
  [
    Alcotest.test_case "ordpath order equals document order" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:40 () in
        let store, import = Gen.import_store ~payload:250 doc in
        ignore (Tree.index doc);
        let infos =
          Array.to_list (Array.map (fun id -> Store.info store id) import.Import.node_ids)
        in
        let sorted =
          List.sort (fun (a : Store.info) b -> Ordpath.compare a.ordpath b.ordpath) infos
        in
        check bool "sorted = preorder" true
          (List.for_all2 (fun (a : Store.info) b -> Node_id.equal a.id b.Store.id) infos sorted));
    Alcotest.test_case "info on a border record raises" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:80 () in
        let store, _ = Gen.import_store ~payload:250 doc in
        let border = ref None in
        for pid = Store.first_page store to Store.first_page store + Store.page_count store - 1 do
          if !border = None then begin
            let view = Store.view store pid in
            (match Gen.up_slots view with
            | slot :: _ -> border := Some (Store.id_of view slot)
            | [] -> ());
            Store.release store view
          end
        done;
        match !border with
        | None -> Alcotest.fail "no border found"
        | Some id -> (
          match Store.info store id with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

let suite =
  [
    ("store.node_id", node_id_tests);
    ("store.record", record_tests);
    Gen.qsuite "store.record.props" record_props;
    ("store.import", import_tests);
    ("store.navigation", navigation_tests);
    Gen.qsuite "store.navigation.props" navigation_props;
    ("store.cursors", cursor_tests);
    Gen.qsuite "store.cursors.props" cursor_props;
    ("store.info", info_tests);
  ]
