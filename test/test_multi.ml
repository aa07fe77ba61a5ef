(* Shared-scan multi-query evaluation (paper outlook Sec. 7): one
   sequential pass must produce, for every path, exactly what a
   standalone plan produces — at a fraction of the I/O. *)

module Tree = Xnav_xml.Tree
module Node_id = Xnav_store.Node_id
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Buffer_manager = Xnav_storage.Buffer_manager
module Path = Xnav_xpath.Path
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Multi = Xnav_core.Multi
module Context = Xnav_core.Context

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let multi_agrees ?config ?(strategy = Import.Dfs) doc path_strs =
  let store, _ = Gen.import_store ~strategy ~payload:200 ~capacity:16 doc in
  let paths = List.map Xpath_parser.parse path_strs in
  let multi = Multi.run ?config ~cold:true store paths in
  List.iteri
    (fun i path ->
      let expected = Eval_ref.count doc path in
      check int (Printf.sprintf "count[%d] vs oracle" i) expected multi.Multi.counts.(i);
      let standalone = Exec.cold_run ?config store path (Plan.xscan ()) in
      check bool
        (Printf.sprintf "nodes[%d] vs standalone scan" i)
        true
        (List.for_all2
           (fun (a : Store.info) (b : Store.info) -> Node_id.equal a.id b.id)
           multi.Multi.per_path.(i) standalone.Exec.nodes))
    paths;
  check int "no pins leaked" 0 (Buffer_manager.pinned_count (Store.buffer store))

let tests =
  [
    Alcotest.test_case "three paths on the sample doc" `Quick (fun () ->
        multi_agrees (Gen.sample_doc ()) [ "//B"; "//A/C"; "/A//B" ]);
    Alcotest.test_case "paths of different lengths" `Quick (fun () ->
        multi_agrees (Gen.wide_tree ~children:60 ()) [ "//x"; "//b/x"; "/b"; "//node()" ]);
    Alcotest.test_case "scattered layout" `Quick (fun () ->
        multi_agrees ~strategy:(Import.Scattered 9) (Gen.wide_tree ~children:60 ())
          [ "//y"; "//c//x" ]);
    Alcotest.test_case "shared scan reads the document once, not once per path" `Quick
      (fun () ->
        let doc = Gen.wide_tree ~children:80 () in
        let store, import = Gen.import_store ~payload:220 ~capacity:16 doc in
        let paths = List.map Xpath_parser.parse [ "//b"; "//x"; "//y" ] in
        let multi = Multi.run ~cold:true store paths in
        check int "one scan" import.Import.page_count multi.Multi.metrics.Exec.page_reads;
        (* Three standalone scans would read three times as much. *)
        let separate =
          List.fold_left
            (fun acc path ->
              acc + (Exec.cold_run store path (Plan.xscan ())).Exec.metrics.Exec.page_reads)
            0 paths
        in
        check int "3x separately" (3 * import.Import.page_count) separate);
    Alcotest.test_case "per-lane fallback recomputes correctly" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:80 () in
        let config = { Context.default_config with Context.memory_budget = 2 } in
        let store, _ =
          Gen.import_store ~strategy:(Import.Scattered 5) ~payload:200 ~capacity:16 doc
        in
        let paths = List.map Xpath_parser.parse [ "//b"; "//b/x" ] in
        let multi = Multi.run ~config ~cold:true store paths in
        check bool "at least one lane fell back" true
          (Array.exists Fun.id multi.Multi.fell_back);
        List.iteri
          (fun i path -> check int "oracle count" (Eval_ref.count doc path) multi.Multi.counts.(i))
          paths);
    Alcotest.test_case "rejects upward axes and empty input" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        (match Multi.run ~cold:true store [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
        match Multi.run ~cold:true store [ Xpath_parser.parse "//B/.." ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "multi applies its own scan-resistance knob after an exec run" `Quick
      (fun () ->
        let doc = Gen.wide_tree ~children:60 () in
        let store, _ = Gen.import_store ~payload:200 ~capacity:16 doc in
        let paths = List.map Xpath_parser.parse [ "//b"; "//b/x" ] in
        let resistant on = Context.set_scan_resistant on Context.default_config in
        let pool_after config =
          ignore (Multi.run ~config ~cold:true store paths);
          Buffer_manager.scan_resistant (Store.buffer store)
        in
        let path = List.hd paths in
        ignore (Exec.cold_run ~config:(resistant false) store path (Plan.xscan ()));
        check bool "2Q on: multi switches the pool to 2Q" true (pool_after (resistant true));
        ignore (Exec.cold_run ~config:(resistant true) store path (Plan.xscan ()));
        check bool "2Q off: multi switches the pool back to LRU" false
          (pool_after (resistant false)));
    Alcotest.test_case "document order is restored per path" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, _ = Gen.import_store ~payload:200 doc in
        let multi = Multi.run ~cold:true store [ Xpath_parser.parse "//B" ] in
        let ordpaths = List.map (fun (i : Store.info) -> i.Store.ordpath) multi.Multi.per_path.(0) in
        let sorted = List.sort Xnav_xml.Ordpath.compare ordpaths in
        check bool "sorted" true (List.for_all2 Xnav_xml.Ordpath.equal ordpaths sorted));
  ]

let props =
  [
    QCheck2.Test.make ~name:"multi: shared scan equals per-path oracle on random inputs"
      ~count:60
      QCheck2.Gen.(pair (Gen.tree_gen ~size:40 ()) (oneofl [ Import.Dfs; Import.Scattered 3 ]))
      ~print:(fun (tree, strategy) ->
        Printf.sprintf "%s / %s" (Gen.tree_print tree) (Import.strategy_to_string strategy))
      (fun (tree, strategy) ->
        let store, _ = Gen.import_store ~strategy ~payload:180 tree in
        let paths = List.map Xpath_parser.parse [ "//a"; "//b//c"; "/descendant::d" ] in
        let multi = Multi.run ~cold:true store paths in
        List.for_all
          (fun (i, path) -> multi.Multi.counts.(i) = Eval_ref.count tree path)
          (List.mapi (fun i p -> (i, p)) paths));
  ]

let suite = [ ("multi", tests); Gen.qsuite "multi.props" props ]
