(* Adversarial and edge-case coverage across layers. *)

module Tree = Xnav_xml.Tree
module Tag = Xnav_xml.Tag
module Ordpath = Xnav_xml.Ordpath
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Node_record = Xnav_store.Node_record
module Update = Xnav_store.Update
module Buffer_manager = Xnav_storage.Buffer_manager
module Path = Xnav_xpath.Path
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Compile = Xnav_core.Compile
module Context = Xnav_core.Context

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let scheduler_tests =
  [
    Alcotest.test_case "non-speculative schedule revisits scattered clusters" `Quick (fun () ->
        (* A three-step path over a scattered layout bounces between
           clusters; without speculation clusters are revisited, with it
           each cluster is loaded at most once. *)
        let doc = Gen.wide_tree ~children:90 () in
        let store, import =
          Gen.import_store ~strategy:(Import.Scattered 23) ~payload:200 ~capacity:64 doc
        in
        let path = Xpath_parser.parse "//b/x" in
        let spec = Exec.cold_run ~ordered:false store path (Plan.xschedule ()) in
        let nospec =
          Exec.cold_run ~ordered:false store path (Plan.xschedule ~speculative:false ())
        in
        check int "same result" nospec.Exec.count spec.Exec.count;
        check bool "speculation caps visits" true
          (spec.Exec.metrics.Exec.clusters_visited <= import.Import.page_count);
        check bool "revisits without speculation" true
          (nospec.Exec.metrics.Exec.clusters_visited
          >= spec.Exec.metrics.Exec.clusters_visited));
    Alcotest.test_case "speculative schedule resolves some speculations" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:90 () in
        let store, _ =
          Gen.import_store ~strategy:(Import.Scattered 23) ~payload:200 ~capacity:64 doc
        in
        let r = Exec.cold_run ~ordered:false store (Xpath_parser.parse "//b/x") (Plan.xschedule ()) in
        check bool "specs created" true (r.Exec.metrics.Exec.specs_created > 0));
  ]

let compile_tests =
  [
    Alcotest.test_case "dslash only applies with a root context" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        (match Compile.compile ~choice:Compile.Force_scan ~context_is_root:false store
                 (Xpath_parser.parse "//B")
         with
        | Plan.Reordered { seeding = Plan.All; _ } -> ()
        | _ -> Alcotest.fail "expected a plain scan"));
  ]

let explicit_props =
  [
    QCheck2.Test.make ~name:"explicit clustering: any assignment navigates correctly" ~count:50
      QCheck2.Gen.(pair (Gen.tree_gen ~size:30 ()) (int_range 1 6))
      ~print:(fun (tree, clusters) -> Printf.sprintf "%s | %d clusters" (Gen.tree_print tree) clusters)
      (fun (tree, clusters) ->
        let n = Tree.index tree in
        (* Deterministic pseudo-random assignment from preorder. *)
        let assignment = Array.init n (fun pre -> pre * 2654435761 mod clusters) in
        let disk = Gen.small_disk ~page_size:4096 () in
        let import = Import.run ~strategy:(Import.Explicit assignment) disk tree in
        let buffer = Buffer_manager.create ~capacity:16 disk in
        let store = Store.attach buffer import in
        Tree.equal tree (Gen.reconstruct store)
        &&
        let path = Xpath_parser.parse "//b//c" in
        let expected = Eval_ref.count tree path in
        List.for_all
          (fun plan -> (Exec.cold_run ~ordered:false store path plan).Exec.count = expected)
          [ Plan.simple; Plan.xschedule (); Plan.xscan () ]);
  ]

let ordpath_growth_tests =
  [
    Alcotest.test_case "adversarial between-chains stay comparable and bounded" `Quick (fun () ->
        (* Alternate left- and right-leaning insertions; labels must stay
           totally ordered and grow at most linearly. *)
        let lo = ref (Ordpath.child Ordpath.root 0) in
        let hi = ref (Ordpath.child Ordpath.root 1) in
        let all = ref [ !lo; !hi ] in
        for i = 1 to 200 do
          let mid = Ordpath.between !lo !hi in
          all := mid :: !all;
          if i mod 2 = 0 then lo := mid else hi := mid
        done;
        let sorted = List.sort Ordpath.compare !all in
        let rec strictly_increasing = function
          | a :: (b :: _ as rest) -> Ordpath.compare a b < 0 && strictly_increasing rest
          | _ -> true
        in
        check bool "strict order" true (strictly_increasing sorted);
        let deepest =
          List.fold_left (fun acc l -> max acc (Array.length (Ordpath.components l))) 0 !all
        in
        check bool "bounded growth" true (deepest <= 205));
  ]

let update_overflow_tests =
  [
    Alcotest.test_case "insert First under overflow pressure" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:30 () in
        let store, _ = Gen.import_store ~payload:150 ~page_size:256 doc in
        (* Fill the root page, then keep prepending. *)
        for i = 1 to 40 do
          ignore
            (Update.insert_element store ~parent:(Store.root store) ~position:Update.First
               (Tag.of_string (Printf.sprintf "f%d" (i mod 5))))
        done;
        let exported = Gen.reconstruct store in
        check int "arity" (30 + 40) (Array.length exported.Tree.children);
        (* Prepends arrive newest-first. *)
        check Alcotest.string "newest first" "f0"
          (Tag.to_string exported.Tree.children.(0).Tree.tag));
    Alcotest.test_case "interleaved inserts and deletes under tiny pages" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:20 () in
        let store, _ = Gen.import_store ~payload:150 ~page_size:256 doc in
        let root = Store.root store in
        for round = 1 to 30 do
          let id = Update.insert_element store ~parent:root (Tag.of_string "tmp") in
          if round mod 2 = 0 then ignore (Update.delete_subtree store id)
        done;
        let exported = Gen.reconstruct store in
        check int "net growth" (20 + 15) (Array.length exported.Tree.children);
        check int "no pins" 0 (Buffer_manager.pinned_count (Store.buffer store)));
  ]

let continues_flag_tests =
  [
    Alcotest.test_case "bulk import creates only terminal runs" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:80 () in
        let store, _ = Gen.import_store ~strategy:(Import.Scattered 3) ~payload:200 doc in
        for pid = Store.first_page store to Store.first_page store + Store.page_count store - 1 do
          let view = Store.view store pid in
          List.iter
            (fun slot ->
              match Store.get view slot with
              | Node_record.Up u -> check bool "terminal" false u.Node_record.continues
              | _ -> ())
            (Gen.up_slots view);
          Store.release store view
        done);
    Alcotest.test_case "stale continues flag after deletes stays correct" `Quick (fun () ->
        (* Force a mid-chain run (First insert into a full page), then
           delete everything after it: the flag stays set but the walk
           must terminate cleanly with the right children. *)
        let doc = Gen.wide_tree ~children:30 () in
        let store, _ = Gen.import_store ~payload:150 ~page_size:256 doc in
        let root = Store.root store in
        for i = 1 to 15 do
          ignore
            (Update.insert_element store ~parent:root ~position:Update.First
               (Tag.of_string (Printf.sprintf "p%d" i)))
        done;
        (* Delete all the original children (everything not p-prefixed). *)
        let next = Store.global_axis store Xnav_xml.Axis.Child root in
        let rec collect acc =
          match next () with
          | None -> List.rev acc
          | Some (info : Store.info) -> collect (info :: acc)
        in
        List.iter
          (fun (info : Store.info) ->
            if (Tag.to_string info.Store.tag).[0] <> 'p' then
              ignore (Update.delete_subtree store info.Store.id))
          (collect []);
        let exported = Gen.reconstruct store in
        check int "only prepends remain" 15 (Array.length exported.Tree.children);
        check bool "order kept" true
          (Tag.equal exported.Tree.children.(0).Tree.tag (Tag.of_string "p15")));
  ]

let record_robustness_tests =
  [
    Alcotest.test_case "decode rejects unknown record kinds" `Quick (fun () ->
        match Node_record.decode "\x07garbage" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "read of an out-of-range page raises" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        match Store.read store (Node_id.make ~pid:99999 ~slot:0) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

let suite =
  [
    ("adversarial.scheduler", scheduler_tests);
    ("adversarial.compile", compile_tests);
    Gen.qsuite "adversarial.explicit" explicit_props;
    ("adversarial.ordpath", ordpath_growth_tests);
    ("adversarial.update", update_overflow_tests);
    ("adversarial.continues", continues_flag_tests);
    ("adversarial.records", record_robustness_tests);
  ]
