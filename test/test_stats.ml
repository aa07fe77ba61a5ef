(* Cardinality statistics: the path summary's live class counts. *)

module Tree = Xnav_xml.Tree
module Store = Xnav_store.Store
module Image = Xnav_store.Image
module Path_partition = Xnav_store.Path_partition
module Path = Xnav_xpath.Path
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Compile = Xnav_core.Compile

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let ints = Alcotest.(list int)

let partition = Store.partition
let step_counts store path = Array.to_list (Path_partition.step_counts (partition store) path)

(* The reference evaluator's count after each step of [path]. *)
let oracle doc path =
  List.init (List.length path) (fun i -> Eval_ref.count doc (Path.prefix path (i + 1)))

let unit_tests =
  [
    Alcotest.test_case "child steps from a unique parent are estimated exactly" `Quick
      (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        check ints "/A" [ 2 ] (step_counts store (Xpath_parser.parse "/A")));
    Alcotest.test_case "estimates are capped by tag totals" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:100 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        List.iter
          (fun path_str ->
            let path = Xpath_parser.parse path_str in
            let counts = step_counts store path in
            check ints path_str (oracle doc path) counts;
            List.iter
              (fun n -> check bool path_str true (n <= Store.node_count store))
              counts)
          [ "//node()"; "//b"; "//b/x"; "/b//x" ]);
    Alcotest.test_case "descendant estimates are roughly right on XMark" `Quick (fun () ->
        let config = { Xnav_xmark.Gen.default_config with Xnav_xmark.Gen.fidelity = 0.01 } in
        let doc = Xnav_xmark.Gen.generate ~config () in
        let store, _ = Gen.import_store ~page_size:4096 doc in
        List.iter
          (fun path_str ->
            let path = Path.from_root_element (Xpath_parser.parse path_str) in
            check ints path_str (oracle doc path) (step_counts store path))
          [ "/site/regions//item"; "/site//description"; "/site/people/person/email" ]);
    Alcotest.test_case "frontier respects self filters" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        check ints "/self::R/A" [ 1; 2 ] (step_counts store (Xpath_parser.parse "/self::R/A"));
        check ints "/self::B/A" [ 0; 0 ] (step_counts store (Xpath_parser.parse "/self::B/A")));
    Alcotest.test_case "synopsis survives persistence" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, _ = Gen.import_store ~payload:200 doc in
        let path = Filename.temp_file "xnav_stats" ".xnav" in
        Image.save path [ store ];
        let loaded = List.hd (Image.load path) in
        Sys.remove path;
        List.iter
          (fun path_str ->
            let path = Xpath_parser.parse path_str in
            check ints path_str (oracle doc path) (step_counts loaded path))
          [ "/A"; "//A"; "//B/*"; "/self::R//A//B" ]);
    Alcotest.test_case "compile uses the synopsis" `Quick (fun () ->
        (* A path to a tag that exists but is unreachable through the
           given chain: the summary knows the chain is dead, the per-tag
           bound does not. *)
        let store, _ = Gen.import_store ~payload:200 (Gen.sample_doc ()) in
        let dead = Xpath_parser.parse "/B/R" in
        check ints "dead chain" [ 0; 0 ] (step_counts store dead);
        check int "dead chain touches only the context" 1
          (Compile.estimate store dead).Compile.touched_nodes;
        let live = Xpath_parser.parse "//A/B" in
        check int "touched nodes sum the exact step counts"
          (List.fold_left ( + ) 0 (oracle (Gen.sample_doc ()) live))
          (Compile.estimate store live).Compile.touched_nodes);
  ]

let props =
  [
    QCheck2.Test.make ~name:"stats: exact child estimates under unique-parent chains" ~count:100
      (Gen.tree_gen ~size:40 ())
      ~print:Gen.tree_print
      (fun doc ->
        let store, _ = Gen.import_store doc in
        step_counts store [ Path.step Xnav_xml.Axis.Child Path.Wildcard ]
        = [ Array.length doc.Tree.children ]);
    QCheck2.Test.make ~name:"stats: every step's count equals the oracle's on random paths"
      ~count:200
      QCheck2.Gen.(pair (Gen.tree_gen ~size:40 ()) Gen.path_gen)
      ~print:(fun (doc, path) ->
        Printf.sprintf "%s | %s" (Gen.tree_print doc) (Path.to_string path))
      (fun (doc, path) ->
        let store, _ = Gen.import_store doc in
        Gen.summary_exact store doc path);
  ]

let suite = [ ("stats", unit_tests); Gen.qsuite "stats.props" props ]
