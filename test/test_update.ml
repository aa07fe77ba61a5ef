(* In-place updates: inserts and deletes must keep the clustered
   representation exactly equivalent to a mirrored in-memory tree —
   structure, document order (via ordpaths), navigation, and plan
   results. *)

module Tree = Xnav_xml.Tree
module Tag = Xnav_xml.Tag
module Ordpath = Xnav_xml.Ordpath
module Node_id = Xnav_store.Node_id
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Update = Xnav_store.Update
module Buffer_manager = Xnav_storage.Buffer_manager
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Result_cache = Xnav_core.Result_cache
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- mirror operations on the in-memory tree ------------------------------ *)

let array_insert arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j -> if j < i then arr.(j) else if j = i then x else arr.(j - 1))

let mirror_insert (parent : Tree.t) index tag =
  let fresh = Tree.leaf tag in
  fresh.Tree.parent <- Some parent;
  parent.Tree.children <- array_insert parent.Tree.children index fresh;
  fresh

let mirror_delete (node : Tree.t) =
  match node.Tree.parent with
  | None -> invalid_arg "mirror_delete: root"
  | Some parent ->
    parent.Tree.children <-
      Array.of_list (List.filter (fun c -> c != node) (Array.to_list parent.Tree.children))

let index_of (parent : Tree.t) (child : Tree.t) =
  let found = ref (-1) in
  Array.iteri (fun i c -> if c == child then found := i) parent.Tree.children;
  !found

(* --- checks ------------------------------------------------------------------ *)

let doc_order_ok store =
  (* Collect all cores via descendant-or-self from the root; the walk is
     in document order, so ordpaths must be strictly increasing. *)
  let next = Store.global_axis store Xnav_xml.Axis.Descendant_or_self (Store.root store) in
  let rec go prev =
    match next () with
    | None -> true
    | Some (info : Store.info) ->
      (match prev with
      | Some p when Ordpath.compare p info.Store.ordpath >= 0 -> false
      | _ -> go (Some info.Store.ordpath))
  in
  go None

let store_matches store mirror =
  Tree.equal mirror (Gen.reconstruct store)
  && doc_order_ok store
  && Buffer_manager.pinned_count (Store.buffer store) = 0

(* --- unit tests ---------------------------------------------------------------- *)

let fresh_setup ?(payload = 200) () =
  let doc = Gen.sample_doc () in
  let store, import = Gen.import_store ~payload doc in
  (doc, store, import)

(* Repeated overflow inserts fill a parent's page with Down records: on
   XMark seed 1 (fidelity 0.001, DFS, 512-byte pages, payload 220, 16
   frames), rounds that give each of the first six imported nodes a new
   first child with one child of its own reach an insert whose siblings'
   page cannot take the Down. It must raise [No_room_for_border] before
   writing anything: every page byte-identical, the counts unchanged, and
   the store still answers queries cleanly. *)
let overflow_insert_is_atomic () =
  let module Page = Xnav_storage.Page in
  let doc =
    Xnav_xmark.Gen.generate ~config:{ Xnav_xmark.Gen.scale = 1.0; fidelity = 0.001; seed = 1 } ()
  in
  let store, import =
    Gen.import_store ~strategy:Import.Dfs ~payload:220 ~page_size:512 ~capacity:16 doc
  in
  let pages () =
    List.init (Store.page_count store) (fun i ->
        let pid = Store.first_page store + i in
        let buffer = Store.buffer store in
        let frame = Buffer_manager.fix buffer pid in
        let page = Buffer_manager.page frame in
        let snapshot = (pid, Page.free_space page, Bytes.to_string (Page.to_bytes page)) in
        Buffer_manager.unfix buffer frame;
        snapshot)
  in
  let tag = Tag.of_string "new" in
  let path = Xpath_parser.parse "/descendant::new" in
  let writes () =
    (Xnav_storage.Disk.stats (Buffer_manager.disk (Store.buffer store))).Xnav_storage.Disk.writes
  in
  let summary_count () =
    (Xnav_store.Path_partition.step_counts (Store.partition store) path).(0)
  in
  let inserted = ref 0 in
  let failed = ref None in
  let insert ?position parent =
    let before =
      ( pages (),
        Store.node_count store,
        Store.page_count store,
        (writes (), Store.mutation_stamp store, summary_count ()) )
    in
    match Update.insert_element store ~parent ?position tag with
    | id ->
      incr inserted;
      Some id
    | exception Update.No_room_for_border pid ->
      failed := Some (pid, before);
      None
  in
  let round = ref 0 in
  while !failed = None && !round < 20 do
    incr round;
    for i = 0 to 5 do
      if !failed = None then
        Option.iter
          (fun child -> ignore (insert child))
          (insert ~position:Update.First import.Import.node_ids.(i))
    done
  done;
  match !failed with
  | None -> Alcotest.fail "no insert ran out of room for its Down"
  | Some (pid, (pages_before, nodes_before, count_before, counters_before)) ->
    let writes_before, stamp_before, summary_before = counters_before in
    check int "inserts before the failing one" 64 !inserted;
    check bool "the full page belongs to the store" true
      (List.exists (fun (p, _, _) -> p = pid) pages_before);
    List.iter2
      (fun (p, free_before, bytes_before) (_, free_after, bytes_after) ->
        check int (Printf.sprintf "page %d free space" p) free_before free_after;
        check bool (Printf.sprintf "page %d bytes" p) true (bytes_before = bytes_after))
      pages_before (pages ());
    check int "node count" nodes_before (Store.node_count store);
    check int "page count" count_before (Store.page_count store);
    check int "disk writes" writes_before (writes ());
    check int "mutation stamp" stamp_before (Store.mutation_stamp store);
    check int "summary count of the inserted tag" summary_before (summary_count ());
    check int "the summary counts every inserted node" !inserted (summary_count ());
    let config = { Xnav_core.Context.default_config with Xnav_core.Context.validate = true } in
    List.iter
      (fun plan ->
        let r = Exec.cold_run ~config ~ordered:false store path plan in
        check int (Plan.name plan ^ " finds every inserted node") !inserted r.Exec.count)
      [ Plan.simple; Plan.xschedule (); Plan.xscan () ]

let unit_tests =
  [
    Alcotest.test_case "append a last child" `Quick (fun () ->
        let doc, store, import = fresh_setup () in
        ignore (Tree.index doc);
        let id = Update.insert_element store ~parent:import.Import.node_ids.(0) (Tag.of_string "new") in
        let _ = mirror_insert doc (Array.length doc.Tree.children) (Tag.of_string "new") in
        check bool "structure" true (store_matches store doc);
        check bool "readable" true (Tag.equal (Store.info store id).Store.tag (Tag.of_string "new")));
    Alcotest.test_case "insert a first child" `Quick (fun () ->
        let doc, store, import = fresh_setup () in
        ignore (Tree.index doc);
        ignore
          (Update.insert_element store ~parent:import.Import.node_ids.(0) ~position:Update.First
             (Tag.of_string "front"));
        let _ = mirror_insert doc 0 (Tag.of_string "front") in
        check bool "structure" true (store_matches store doc));
    Alcotest.test_case "insert after a middle sibling" `Quick (fun () ->
        let doc, store, import = fresh_setup () in
        ignore (Tree.index doc);
        let second_child = doc.Tree.children.(1) in
        let sid = import.Import.node_ids.(second_child.Tree.preorder) in
        ignore
          (Update.insert_element store ~parent:import.Import.node_ids.(0)
             ~position:(Update.After sid) (Tag.of_string "mid"));
        let _ = mirror_insert doc 2 (Tag.of_string "mid") in
        check bool "structure" true (store_matches store doc));
    Alcotest.test_case "insert under an empty leaf" `Quick (fun () ->
        let doc, store, import = fresh_setup () in
        ignore (Tree.index doc);
        (* The deepest B of the sample doc is a leaf. *)
        let leaf = List.find (fun n -> Array.length n.Tree.children = 0) (Tree.nodes doc) in
        let lid = import.Import.node_ids.(leaf.Tree.preorder) in
        ignore (Update.insert_element store ~parent:lid (Tag.of_string "baby"));
        let _ = mirror_insert leaf 0 (Tag.of_string "baby") in
        check bool "structure" true (store_matches store doc));
    Alcotest.test_case "many inserts overflow into new pages" `Quick (fun () ->
        let doc, store, import = fresh_setup ~payload:150 () in
        ignore (Tree.index doc);
        let before_pages = Store.page_count store in
        for i = 1 to 60 do
          ignore
            (Update.insert_element store ~parent:import.Import.node_ids.(0)
               (Tag.of_string (Printf.sprintf "n%d" (i mod 7))));
          ignore (mirror_insert doc (Array.length doc.Tree.children)
                    (Tag.of_string (Printf.sprintf "n%d" (i mod 7))))
        done;
        check bool "grew" true (Store.page_count store > before_pages);
        check bool "structure" true (store_matches store doc);
        check int "node count tracked" (Tree.size doc) (Store.node_count store));
    Alcotest.test_case "insert_tree grafts a whole subtree" `Quick (fun () ->
        let doc, store, import = fresh_setup () in
        ignore (Tree.index doc);
        let subtree () = Tree.elt "g" [ Tree.elt "h" [ Tree.elt "i" [] ]; Tree.elt "h" [] ] in
        ignore (Update.insert_tree store ~parent:import.Import.node_ids.(0) (subtree ()));
        let graft = subtree () in
        graft.Tree.parent <- Some doc;
        doc.Tree.children <- array_insert doc.Tree.children (Array.length doc.Tree.children) graft;
        check bool "structure" true (store_matches store doc));
    Alcotest.test_case "delete a leaf" `Quick (fun () ->
        let doc, store, import = fresh_setup () in
        ignore (Tree.index doc);
        let leaf = List.find (fun n -> Array.length n.Tree.children = 0) (Tree.nodes doc) in
        let removed = Update.delete_subtree store import.Import.node_ids.(leaf.Tree.preorder) in
        check int "one node" 1 removed;
        mirror_delete leaf;
        check bool "structure" true (store_matches store doc));
    Alcotest.test_case "delete a subtree spanning clusters" `Quick (fun () ->
        let doc, store, import = fresh_setup ~payload:150 () in
        ignore (Tree.index doc);
        let victim = doc.Tree.children.(0) in
        let removed = Update.delete_subtree store import.Import.node_ids.(victim.Tree.preorder) in
        check int "whole subtree" (Tree.size victim) removed;
        mirror_delete victim;
        check bool "structure" true (store_matches store doc);
        check int "node count tracked" (Tree.size doc) (Store.node_count store));
    Alcotest.test_case "deleting the root is rejected" `Quick (fun () ->
        let _, store, import = fresh_setup () in
        match Update.delete_subtree store import.Import.node_ids.(0) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "After sibling under a different parent is rejected" `Quick (fun () ->
        let doc, store, import = fresh_setup () in
        ignore (Tree.index doc);
        let parent = import.Import.node_ids.(0) in
        (* A grandchild is not a child of the root. *)
        let grandchild = doc.Tree.children.(0).Tree.children.(0) in
        let gid = import.Import.node_ids.(grandchild.Tree.preorder) in
        match Update.insert_element store ~parent ~position:(Update.After gid) (Tag.of_string "z") with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "queries stay correct after updates" `Quick (fun () ->
        let doc, store, import = fresh_setup ~payload:180 () in
        ignore (Tree.index doc);
        let parent = import.Import.node_ids.(0) in
        for _ = 1 to 25 do
          ignore (Update.insert_element store ~parent (Tag.of_string "B"));
          ignore (mirror_insert doc (Array.length doc.Tree.children) (Tag.of_string "B"))
        done;
        let path = Xpath_parser.parse "//B" in
        List.iter
          (fun plan ->
            let r = Exec.cold_run ~ordered:false store path plan in
            check int (Plan.name plan) (Eval_ref.count doc path) r.Exec.count)
          [ Plan.simple; Plan.xschedule (); Plan.xscan () ]);
    Alcotest.test_case "inserts at a cluster boundary stamp exactly the written clusters" `Quick
      (fun () ->
        let doc, store, import = fresh_setup ~payload:150 () in
        ignore (Tree.index doc);
        let before_pages = Store.page_count store in
        let log = Hashtbl.create 8 in
        let saved = Store.swap_write_log store (Some log) in
        (* Append until a fresh page opens: the insert that crosses the
           cluster boundary escalates into a page its parent does not
           live in. *)
        let i = ref 0 in
        while Store.page_count store = before_pages && !i < 200 do
          incr i;
          ignore
            (Update.insert_element store ~parent:import.Import.node_ids.(0)
               (Tag.of_string "edge"));
          ignore (mirror_insert doc (Array.length doc.Tree.children) (Tag.of_string "edge"))
        done;
        ignore (Store.swap_write_log store saved);
        check bool "a new page was opened" true (Store.page_count store > before_pages);
        check bool "structure" true (store_matches store doc);
        (* Cluster-granular staleness: every written cluster is stamped,
           and no unwritten cluster is — the boundary crossing must not
           fall back to a store-global stale. *)
        check bool "the write set is non-trivial" true (Hashtbl.length log > 1);
        Hashtbl.iter
          (fun pid () ->
            check bool (Printf.sprintf "written cluster %d stamped" pid) true
              (Store.page_stamp store pid > 0))
          log;
        for pid = Store.first_page store to Store.first_page store + Store.page_count store - 1 do
          if not (Hashtbl.mem log pid) then
            check int (Printf.sprintf "unwritten cluster %d unstamped" pid) 0
              (Store.page_stamp store pid)
        done);
    Alcotest.test_case "deleting a cluster's last record empties the page cleanly" `Quick
      (fun () ->
        let doc = Gen.sample_doc () in
        ignore (Tree.index doc);
        (* Isolate one leaf in its own cluster, so the delete removes the
           cluster's final record. *)
        let leaf = List.find (fun n -> Array.length n.Tree.children = 0) (Tree.nodes doc) in
        let assignment =
          Array.init (Tree.size doc) (fun pre -> if pre = leaf.Tree.preorder then 1 else 0)
        in
        let store, import = Gen.import_store ~strategy:(Import.Explicit assignment) doc in
        let lid = import.Import.node_ids.(leaf.Tree.preorder) in
        let pid = lid.Node_id.pid in
        let stamp0 = Store.page_stamp store pid in
        let removed = Update.delete_subtree store lid in
        check int "one node" 1 removed;
        mirror_delete leaf;
        check bool "structure" true (store_matches store doc);
        check bool "the emptied cluster is stamped" true (Store.page_stamp store pid > stamp0);
        check int "the page is not reclaimed" 2 (Store.page_count store);
        (* The emptied page still hosts fresh records. *)
        ignore (Update.insert_element store ~parent:import.Import.node_ids.(0) (Tag.of_string "re"));
        ignore (mirror_insert doc (Array.length doc.Tree.children) (Tag.of_string "re"));
        check bool "structure after reuse" true (store_matches store doc));
    Alcotest.test_case "interleaved insert/delete stale a cluster's entries exactly once" `Quick
      (fun () ->
        let doc, store, import = fresh_setup () in
        ignore (Tree.index doc);
        let root_id = import.Import.node_ids.(0) in
        Result_cache.clear ();
        Result_cache.reset_stats ();
        let log = Hashtbl.create 8 in
        let saved = Store.swap_write_log store (Some log) in
        let ws () = Array.of_list (Hashtbl.fold (fun p () acc -> p :: acc) log []) in
        let fresh = Update.insert_element store ~parent:root_id (Tag.of_string "tmp") in
        let insert_set = ws () in
        (* A cached statement whose footprint is the insert's own write
           set: the interleaved delete hits the same cluster (both ops
           write the fresh node's page). *)
        ignore (Result_cache.add ~clusters:insert_set store "/probe" ~count:0 []);
        Hashtbl.reset log;
        ignore (Update.delete_subtree store fresh);
        check bool "the delete wrote the insert's cluster" true
          (Array.exists (fun p -> p = fresh.Node_id.pid) insert_set
          && Hashtbl.mem log fresh.Node_id.pid);
        check int "the delete stales the entry" 1 (Result_cache.stale_clusters store (ws ()));
        check int "a second signal for the same cluster finds nothing" 0
          (Result_cache.stale_clusters store (ws ()));
        ignore (Store.swap_write_log store saved);
        check int "staleness was signalled exactly once" 1 (Result_cache.stats ()).Result_cache.stales;
        check bool "structure" true (store_matches store doc);
        Result_cache.clear ();
        Result_cache.reset_stats ());
    Alcotest.test_case "an index plan serves the inserted node" `Quick (fun () ->
        let doc, store, import = fresh_setup () in
        ignore (Tree.index doc);
        let path = Xpath_parser.parse "/A/B" in
        (* A pure child chain is answered by the covering index, before
           and after an insert under the first A. *)
        let picks_index () =
          match Xnav_core.Compile.compile store path with
          | Plan.Reordered { io = Plan.Io_index _; _ } -> ()
          | plan -> Alcotest.failf "expected xindex, got %s" (Plan.name plan)
        in
        picks_index ();
        let first_a = doc.Tree.children.(0) in
        let pid = import.Import.node_ids.(first_a.Tree.preorder) in
        let fresh = Update.insert_element store ~parent:pid (Tag.of_string "B") in
        ignore (mirror_insert first_a (Array.length first_a.Tree.children) (Tag.of_string "B"));
        picks_index ();
        let r = Exec.cold_run ~ordered:false store path (Plan.xindex ()) in
        check int "the index counts the insert" (Eval_ref.count doc path) r.Exec.count;
        check bool "served from the entry lists" true (r.Exec.metrics.Exec.index_entries > 0);
        check bool "the inserted node is among the results" true
          (List.exists (fun (i : Store.info) -> Node_id.equal i.Store.id fresh) r.Exec.nodes));
    Alcotest.test_case "an overflow insert without room for its Down changes nothing" `Quick
      overflow_insert_is_atomic;
  ]

(* --- randomised mirror workout -------------------------------------------------- *)

type op = Op_insert of int * int * string | Op_delete of int
(* insert: (parent pick, position pick, tag); delete: victim pick. The
   int picks are reduced modulo the live node count at application time. *)

let op_gen =
  let open QCheck2.Gen in
  oneof
    [
      ( int_range 0 1000 >>= fun parent ->
        int_range 0 1000 >>= fun pos ->
        oneofa Gen.tag_pool >|= fun tag -> Op_insert (parent, pos, tag) );
      (int_range 0 1000 >|= fun victim -> Op_delete victim);
    ]

let apply_ops ?(after_op = fun _ -> ()) doc store import ops =
  ignore (Tree.index doc);
  (* id <-> tree-node correspondence, maintained across updates. *)
  let by_id = Node_id.Tbl.create 64 in
  Array.iteri
    (fun pre id ->
      let node = List.nth (Tree.nodes doc) pre in
      Node_id.Tbl.replace by_id id node)
    import.Xnav_store.Import.node_ids;
  let live () =
    (* Document-order list of (id, tree node). *)
    let next = Store.global_axis store Xnav_xml.Axis.Descendant_or_self (Store.root store) in
    let rec go acc =
      match next () with
      | None -> List.rev acc
      | Some (info : Store.info) -> go ((info.Store.id, Node_id.Tbl.find by_id info.Store.id) :: acc)
    in
    go []
  in
  List.iter
    (fun op ->
      let nodes = live () in
      let n = List.length nodes in
      (match op with
      | Op_insert (ppick, pos_pick, tag_name) ->
        let pid, pnode = List.nth nodes (ppick mod n) in
        let tag = Tag.of_string tag_name in
        let arity = Array.length pnode.Tree.children in
        let position, index =
          match pos_pick mod 3 with
          | 0 -> (Update.First, 0)
          | 1 -> (Update.Last, arity)
          | _ ->
            if arity = 0 then (Update.Last, 0)
            else begin
              let k = pos_pick mod arity in
              let sibling = pnode.Tree.children.(k) in
              (* Find the sibling's id through the correspondence. *)
              let sid =
                List.find (fun (_, node) -> node == sibling) nodes |> fst
              in
              (Update.After sid, k + 1)
            end
        in
        let new_id = Update.insert_element store ~parent:pid ~position tag in
        let fresh = mirror_insert pnode index tag in
        Node_id.Tbl.replace by_id new_id fresh
      | Op_delete vpick ->
        if n > 1 then begin
          (* Skip index 0: the root. *)
          let vid, vnode = List.nth nodes (1 + (vpick mod (n - 1))) in
          ignore (Update.delete_subtree store vid);
          mirror_delete vnode
        end);
      after_op by_id)
    ops

(* Every axis from every live node, drained through the store and mapped
   back through the id <-> node correspondence, equals the oracle's axis
   on the mirror. *)
let axes_match store by_id =
  let next = Store.global_axis store Xnav_xml.Axis.Descendant_or_self (Store.root store) in
  let rec live acc = match next () with None -> acc | Some (i : Store.info) -> live (i :: acc) in
  List.for_all
    (fun (context : Store.info) ->
      let node = Node_id.Tbl.find by_id context.Store.id in
      List.for_all
        (fun axis ->
          let expected = Xnav_xml.Tree_axes.nodes axis node in
          let next = Store.global_axis store axis context.Store.id in
          let rec same = function
            | [] -> next () = None
            | e :: rest -> (
              match next () with
              | Some (i : Store.info) -> Node_id.Tbl.find by_id i.Store.id == e && same rest
              | None -> false)
          in
          same expected)
        Xnav_xml.Axis.all)
    (live [])

let props =
  [
    QCheck2.Test.make ~name:"update: random op sequences keep store == mirror" ~count:40
      QCheck2.Gen.(
        triple (Gen.tree_gen ~size:25 ())
          (list_size (int_range 1 25) op_gen)
          (oneofl [ Import.Dfs; Import.Scattered 13 ]))
      ~print:(fun (tree, ops, strategy) ->
        Printf.sprintf "%s | %d ops | %s" (Gen.tree_print tree) (List.length ops)
          (Import.strategy_to_string strategy))
      (fun (tree, ops, strategy) ->
        let store, import = Gen.import_store ~strategy ~payload:170 tree in
        apply_ops tree store import ops;
        store_matches store tree
        && Store.node_count store = Tree.size tree
        &&
        (* Plans agree with the oracle on the mutated document. *)
        let path = Xpath_parser.parse "//b//c" in
        let expected = Eval_ref.count tree path in
        List.for_all
          (fun plan -> (Exec.cold_run ~ordered:false store path plan).Exec.count = expected)
          [ Plan.simple; Plan.xschedule (); Plan.xscan () ]);
  ]

(* Paths whose every prefix the summary must count exactly, the novel
   tag included. *)
let summary_paths =
  List.map Xpath_parser.parse [ "//node()"; "//*/b"; "/self::*//c/*"; "//novel"; "/novel" ]

let summary_props =
  [
    QCheck2.Test.make ~name:"update: the summary counts every step exactly after random ops"
      ~count:40
      QCheck2.Gen.(
        quad (Gen.tree_gen ~size:25 ())
          (list_size (int_range 1 25) op_gen)
          (oneofl [ Import.Dfs; Import.Scattered 13 ])
          (list_size (int_range 1 3) Gen.path_gen))
      ~print:(fun (tree, ops, strategy, paths) ->
        Printf.sprintf "%s | %d ops | %s | %s" (Gen.tree_print tree) (List.length ops)
          (Import.strategy_to_string strategy)
          (String.concat " " (List.map Xnav_xpath.Path.to_string paths)))
      (fun (tree, ops, strategy, paths) ->
        let store, import = Gen.import_store ~strategy ~payload:170 tree in
        let paths = summary_paths @ paths in
        let exact () = List.for_all (Gen.summary_exact store tree) paths in
        let ok = ref true in
        apply_ops tree store import ops ~after_op:(fun _ -> if !ok then ok := exact ());
        (* A tag sequence the import never saw, then the delete of that
           inserted node. *)
        let novel = Tag.of_string "novel" in
        let id = Update.insert_element store ~parent:(Store.root store) novel in
        let node = mirror_insert tree (Array.length tree.Tree.children) novel in
        let after_insert = exact () in
        ignore (Update.delete_subtree store id);
        mirror_delete node;
        !ok && after_insert && exact ());
  ]

let axis_props =
  [
    QCheck2.Test.make ~name:"update: every axis matches the mirror after every op" ~count:40
      QCheck2.Gen.(
        triple (Gen.tree_gen ~size:25 ())
          (list_size (int_range 1 25) op_gen)
          (oneofl [ Import.Dfs; Import.Scattered 13 ]))
      ~print:(fun (tree, ops, strategy) ->
        Printf.sprintf "%s | %d ops | %s" (Gen.tree_print tree) (List.length ops)
          (Import.strategy_to_string strategy))
      (fun (tree, ops, strategy) ->
        let store, import = Gen.import_store ~strategy ~payload:170 tree in
        let ok = ref true in
        apply_ops tree store import ops ~after_op:(fun by_id ->
            if !ok then ok := axes_match store by_id);
        !ok && Buffer_manager.pinned_count (Store.buffer store) = 0);
  ]

(* --- the live partition ------------------------------------------------------- *)

module Path_partition = Xnav_store.Path_partition
module Image = Xnav_store.Image

let image_path = Filename.temp_file "xnav_update" ".xnav"

(* The store's live (id, node, ordpath) triples, in document order. *)
let live_nodes store by_id =
  let next = Store.global_axis store Xnav_xml.Axis.Descendant_or_self (Store.root store) in
  let rec go acc =
    match next () with
    | None -> List.rev acc
    | Some (i : Store.info) ->
      go ((i.Store.id, Node_id.Tbl.find by_id i.Store.id, i.Store.ordpath) :: acc)
  in
  go []

(* (a) Every class holds exactly the entries (ids and labels) of the
   same class in a partition rebuilt from the mirror with the live ids,
   and [class_of] maps each entry to its class. *)
let partition_matches_mirror store by_id mirror =
  let live = live_nodes store by_id in
  ignore (Tree.index mirror);
  let n = List.length live in
  let node_ids = Array.make n (Store.root store) and ordpaths = Array.make n Ordpath.root in
  List.iter
    (fun (id, (node : Tree.t), label) ->
      node_ids.(node.Tree.preorder) <- id;
      ordpaths.(node.Tree.preorder) <- label)
    live;
  let rebuilt = Path_partition.build mirror ~node_ids ~ordpaths in
  let p = Store.partition store in
  let total = ref 0 in
  let ok = ref (n = Tree.size mirror) in
  for c = 0 to Path_partition.class_count p - 1 do
    let r = Path_partition.intern rebuilt (Path_partition.class_sequence p c) in
    let ids = Path_partition.class_entries p c in
    total := !total + Array.length ids;
    ok :=
      !ok
      && Path_partition.class_entries rebuilt r = ids
      && Array.for_all2 Ordpath.equal (Path_partition.class_labels rebuilt r)
           (Path_partition.class_labels p c)
      && Array.for_all (fun id -> Store.class_of store id = c) ids
  done;
  !ok && !total = n

(* (b) Index-seeded and summary-seeded plans return Simple's ids. *)
let seeded_plans =
  [
    Plan.xindex ();
    Plan.xscan ~seeding:Plan.Summary ();
    Plan.xschedule ~seeding:Plan.Summary ();
  ]

let seeded_plans_agree store paths =
  let ids plan path =
    (Exec.cold_run ~ordered:false store path plan).Exec.nodes
    |> List.map (fun (i : Store.info) -> i.Store.id)
    |> List.sort Node_id.compare
  in
  List.for_all
    (fun path ->
      let expected = ids Plan.simple path in
      List.for_all (fun plan -> ids plan path = expected) seeded_plans)
    paths

(* (c) The mutated store round-trips through an image: an equal
   partition, and the identity of a fresh import of the mirror. *)
let image_round_trips store mirror =
  Image.save image_path [ store ];
  match Image.load ~capacity:16 image_path with
  | [ loaded ] ->
    let fresh, _ = Gen.import_store ~payload:170 mirror in
    Path_partition.equal (Store.partition store) (Store.partition loaded)
    && Store.identity loaded = Store.identity fresh
  | _ -> false

let partition_paths = List.map Xpath_parser.parse [ "/a/b"; "/*/*"; "/a//b"; "//c/*" ]

let partition_exact store by_id mirror paths =
  partition_matches_mirror store by_id mirror
  && seeded_plans_agree store paths
  && image_round_trips store mirror

(* Delete a leaf that is its parent's only child and sits in its
   parent's page, then insert a leaf of another tag under that parent:
   the insert lands in the same page and reuses the freed slot. Returns
   whether the slot was reused ([None] when no such leaf exists). *)
let reinsert_into_freed_slot store by_id =
  let live = live_nodes store by_id in
  let parent_of (node : Tree.t) =
    List.find_map
      (fun (id, (p : Tree.t), _) ->
        if Array.exists (fun c -> c == node) p.Tree.children then Some (id, p) else None)
      live
  in
  List.find_map
    (fun (id, (node : Tree.t), _) ->
      match parent_of node with
      | Some (pid, pnode)
        when Array.length pnode.Tree.children = 1
             && Array.length node.Tree.children = 0
             && pid.Node_id.pid = id.Node_id.pid ->
        ignore (Update.delete_subtree store id);
        mirror_delete node;
        let tag = Tag.of_string (if Tag.to_string node.Tree.tag = "e" then "d" else "e") in
        let fresh = Update.insert_element store ~parent:pid tag in
        Node_id.Tbl.replace by_id fresh (mirror_insert pnode 0 tag);
        Some (Node_id.equal fresh id)
      | _ -> None)
    live

let partition_props =
  [
    QCheck2.Test.make ~name:"update: the partition stays exact after every op" ~count:40
      QCheck2.Gen.(
        quad (Gen.tree_gen ~size:25 ())
          (list_size (int_range 1 25) op_gen)
          (oneofl [ Import.Dfs; Import.Scattered 13 ])
          (list_size (int_range 1 2) Gen.path_gen))
      ~print:(fun (tree, ops, strategy, paths) ->
        Printf.sprintf "%s | %d ops | %s | %s" (Gen.tree_print tree) (List.length ops)
          (Import.strategy_to_string strategy)
          (String.concat " " (List.map Xnav_xpath.Path.to_string paths)))
      (fun (tree, ops, strategy, paths) ->
        let store, import = Gen.import_store ~strategy ~payload:170 tree in
        let paths = partition_paths @ paths in
        let ok = ref true in
        let last = ref (Node_id.Tbl.create 0) in
        apply_ops tree store import ops ~after_op:(fun by_id ->
            last := by_id;
            if !ok then ok := partition_exact store by_id tree paths);
        (match reinsert_into_freed_slot store !last with
        | Some _ -> if !ok then ok := partition_exact store !last tree paths
        | None -> ());
        !ok && Buffer_manager.pinned_count (Store.buffer store) = 0);
  ]

(* The freed-slot reinsert of the property above, on a fixed document
   where the slot is known to be reused: a stale class map would still
   name the deleted node's class. *)
let freed_slot_reuse () =
  let doc = Tree.elt "r" [ Tree.elt "a" [ Tree.elt "b" [] ]; Tree.elt "c" [] ] in
  let store, import = Gen.import_store doc in
  let by_id = Node_id.Tbl.create 8 in
  Array.iteri
    (fun pre id -> Node_id.Tbl.replace by_id id (List.nth (Tree.nodes doc) pre))
    import.Import.node_ids;
  check (Alcotest.option bool) "the insert reused the freed slot" (Some true)
    (reinsert_into_freed_slot store by_id);
  check bool "the partition matches the mirror" true
    (partition_exact store by_id doc partition_paths)

let suite =
  [
    ("update", unit_tests);
    Gen.qsuite "update.props" (props @ summary_props);
    Gen.qsuite "update.axes" (axis_props @ partition_props);
    ( "update.partition",
      [
        Alcotest.test_case "an insert into a freed slot joins its own class" `Quick
          freed_slot_reuse;
      ] );
  ]
