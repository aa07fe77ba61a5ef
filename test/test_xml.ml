(* Tests for the xnav_xml library: tags, trees, ordpaths, parser/writer,
   axis semantics. *)

module Tag = Xnav_xml.Tag
module Tree = Xnav_xml.Tree
module Ordpath = Xnav_xml.Ordpath
module Axis = Xnav_xml.Axis
module Tree_axes = Xnav_xml.Tree_axes
module Xml_parser = Xnav_xml.Xml_parser
module Xml_writer = Xnav_xml.Xml_writer

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* --- Tag ---------------------------------------------------------------- *)

let tag_tests =
  [
    Alcotest.test_case "interning is idempotent" `Quick (fun () ->
        check bool "same tag" true (Tag.equal (Tag.of_string "item") (Tag.of_string "item")));
    Alcotest.test_case "distinct names get distinct tags" `Quick (fun () ->
        check bool "different" false (Tag.equal (Tag.of_string "foo") (Tag.of_string "bar")));
    Alcotest.test_case "to_string round-trips" `Quick (fun () ->
        check string "name" "listitem" (Tag.to_string (Tag.of_string "listitem")));
    Alcotest.test_case "of_id inverts id" `Quick (fun () ->
        let t = Tag.of_string "quux" in
        check bool "same" true (Tag.equal t (Tag.of_id (Tag.id t))));
    Alcotest.test_case "of_id rejects unknown ids" `Quick (fun () ->
        Alcotest.check_raises "invalid" (Invalid_argument "Tag.of_id: unknown tag id -1")
          (fun () -> ignore (Tag.of_id (-1))));
  ]

(* --- Tree --------------------------------------------------------------- *)

let tree_tests =
  [
    Alcotest.test_case "size and height" `Quick (fun () ->
        let t = Gen.sample_doc () in
        check int "size" 14 (Tree.size t);
        check int "height" 4 (Tree.height t));
    Alcotest.test_case "index assigns dense preorder" `Quick (fun () ->
        let t = Gen.sample_doc () in
        let n = Tree.index t in
        check int "count" (Tree.size t) n;
        let seen = Array.make n false in
        Tree.iter (fun node -> seen.(node.Tree.preorder) <- true) t;
        Array.iteri (fun i s -> check bool (Printf.sprintf "preorder %d" i) true s) seen);
    Alcotest.test_case "nodes are in document order" `Quick (fun () ->
        let t = Gen.sample_doc () in
        ignore (Tree.index t);
        let pres = List.map (fun n -> n.Tree.preorder) (Tree.nodes t) in
        check (Alcotest.list int) "preorder" (List.init (Tree.size t) Fun.id) pres);
    Alcotest.test_case "make rejects node sharing" `Quick (fun () ->
        let shared = Tree.leaf (Tag.of_string "s") in
        let _parent = Tree.make (Tag.of_string "p") [ shared ] in
        Alcotest.check_raises "sharing" (Invalid_argument "Tree.make: child already has a parent")
          (fun () -> ignore (Tree.make (Tag.of_string "q") [ shared ])));
    Alcotest.test_case "equal ignores parent and preorder" `Quick (fun () ->
        check bool "equal" true (Tree.equal (Gen.sample_doc ()) (Gen.sample_doc ())));
    Alcotest.test_case "tag_counts sums to size" `Quick (fun () ->
        let t = Gen.sample_doc () in
        let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Tree.tag_counts t) in
        check int "total" (Tree.size t) total);
    Alcotest.test_case "root finds the top" `Quick (fun () ->
        let t = Gen.sample_doc () in
        let some_leaf = List.nth (Tree.nodes t) (Tree.size t - 1) in
        check bool "root" true (Tree.root some_leaf == t));
  ]

(* --- Ordpath ------------------------------------------------------------ *)

let ordpath_pair_gen =
  let open QCheck2.Gen in
  (* A pair of distinct sibling-ish labels built by random child/sibling
     steps from the root. *)
  let label_gen =
    list_size (int_range 0 6) (int_range 0 4) >|= fun steps ->
    List.fold_left (fun l k -> Ordpath.child l k) Ordpath.root steps
  in
  pair label_gen label_gen

let ordpath_tests =
  [
    Alcotest.test_case "root is its own ancestor" `Quick (fun () ->
        check bool "aos" true (Ordpath.is_ancestor_or_self Ordpath.root Ordpath.root));
    Alcotest.test_case "child is after parent" `Quick (fun () ->
        let c = Ordpath.child Ordpath.root 0 in
        check bool "order" true (Ordpath.compare Ordpath.root c < 0);
        check bool "ancestor" true (Ordpath.is_ancestor_or_self Ordpath.root c);
        check int "level" 1 (Ordpath.level c));
    Alcotest.test_case "children are ordered by index" `Quick (fun () ->
        let c0 = Ordpath.child Ordpath.root 0 and c5 = Ordpath.child Ordpath.root 5 in
        check bool "order" true (Ordpath.compare c0 c5 < 0));
    Alcotest.test_case "next/prev siblings order correctly" `Quick (fun () ->
        let c = Ordpath.child Ordpath.root 3 in
        check bool "next" true (Ordpath.compare c (Ordpath.next_sibling c) < 0);
        check bool "prev" true (Ordpath.compare (Ordpath.prev_sibling c) c < 0));
    Alcotest.test_case "between on adjacent siblings uses a caret" `Quick (fun () ->
        let a = Ordpath.child Ordpath.root 0 and b = Ordpath.child Ordpath.root 1 in
        let m = Ordpath.between a b in
        check bool "a<m" true (Ordpath.compare a m < 0);
        check bool "m<b" true (Ordpath.compare m b < 0);
        check int "level preserved" (Ordpath.level a) (Ordpath.level m));
    Alcotest.test_case "between parent and first child" `Quick (fun () ->
        let c = Ordpath.child Ordpath.root 0 in
        let m = Ordpath.between Ordpath.root c in
        check bool "root<m" true (Ordpath.compare Ordpath.root m < 0);
        check bool "m<c" true (Ordpath.compare m c < 0));
    Alcotest.test_case "between rejects unordered arguments" `Quick (fun () ->
        let c = Ordpath.child Ordpath.root 0 in
        Alcotest.check_raises "unordered"
          (Invalid_argument "Ordpath.between: arguments not ordered") (fun () ->
            ignore (Ordpath.between c Ordpath.root)));
    Alcotest.test_case "repeated between keeps nesting bounded labels ordered" `Quick (fun () ->
        (* Insert 50 labels between two adjacent siblings; all must stay
           strictly ordered. *)
        let a = ref (Ordpath.child Ordpath.root 0) in
        let b = Ordpath.child Ordpath.root 1 in
        for _ = 1 to 50 do
          let m = Ordpath.between !a b in
          assert (Ordpath.compare !a m < 0 && Ordpath.compare m b < 0);
          a := m
        done);
    Alcotest.test_case "encode/decode round-trips" `Quick (fun () ->
        let label = Ordpath.of_components [| 1; -3; 4; 1; 255 |] in
        let buf = Buffer.create 16 in
        Ordpath.encode buf label;
        check int "size" (Buffer.length buf) (Ordpath.encoded_size label);
        let decoded, consumed = Ordpath.decode (Buffer.contents buf) 0 in
        check bool "equal" true (Ordpath.equal label decoded);
        check int "consumed" (Buffer.length buf) consumed);
    Alcotest.test_case "of_components validates" `Quick (fun () ->
        Alcotest.check_raises "even end"
          (Invalid_argument "Ordpath: label must end in an odd component") (fun () ->
            ignore (Ordpath.of_components [| 1; 2 |])));
  ]

let ordpath_props =
  [
    QCheck2.Test.make ~name:"ordpath: compare is a total order consistent with between"
      ~count:300 ordpath_pair_gen (fun (a, b) ->
        let c = Ordpath.compare a b in
        if c = 0 then Ordpath.equal a b
        else begin
          let lo, hi = if c < 0 then (a, b) else (b, a) in
          let m = Ordpath.between lo hi in
          Ordpath.compare lo m < 0 && Ordpath.compare m hi < 0
        end);
    QCheck2.Test.make ~name:"ordpath: codec round-trip" ~count:300 ordpath_pair_gen
      (fun (a, b) ->
        let roundtrip l =
          let buf = Buffer.create 16 in
          Ordpath.encode buf l;
          let decoded, _ = Ordpath.decode (Buffer.contents buf) 0 in
          Ordpath.equal l decoded
        in
        roundtrip a && roundtrip b);
    QCheck2.Test.make ~name:"ordpath: document order matches preorder on generated trees"
      ~count:100
      (Gen.tree_gen ~size:60 ())
      ~print:Gen.tree_print
      (fun tree ->
        ignore (Tree.index tree);
        (* Label the tree, then check label order == preorder. *)
        let labels = Hashtbl.create 64 in
        let rec label node path =
          Hashtbl.add labels node.Tree.preorder path;
          Array.iteri (fun i child -> label child (Ordpath.child path i)) node.Tree.children
        in
        label tree Ordpath.root;
        let nodes = Tree.nodes tree in
        let sorted =
          List.sort
            (fun x y ->
              Ordpath.compare
                (Hashtbl.find labels x.Tree.preorder)
                (Hashtbl.find labels y.Tree.preorder))
            nodes
        in
        List.for_all2 (fun a b -> a == b) nodes sorted);
    QCheck2.Test.make ~name:"ordpath: is_ancestor_or_self matches tree structure" ~count:60
      (Gen.tree_gen ~size:30 ())
      ~print:Gen.tree_print
      (fun tree ->
        ignore (Tree.index tree);
        let labels = Hashtbl.create 64 in
        let rec label node path =
          Hashtbl.add labels node.Tree.preorder path;
          Array.iteri (fun i child -> label child (Ordpath.child path i)) node.Tree.children
        in
        label tree Ordpath.root;
        let nodes = Tree.nodes tree in
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                let expected =
                  List.memq a (b :: Tree_axes.nodes Axis.Ancestor b)
                in
                Ordpath.is_ancestor_or_self
                  (Hashtbl.find labels a.Tree.preorder)
                  (Hashtbl.find labels b.Tree.preorder)
                = expected)
              nodes)
          nodes);
  ]

(* --- XML parser / writer ------------------------------------------------- *)

let nested_elements n =
  String.concat "" (List.init n (fun _ -> "<a>")) ^ String.concat "" (List.init n (fun _ -> "</a>"))

let parser_tests =
  [
    Alcotest.test_case "parses a simple document" `Quick (fun () ->
        let t = Xml_parser.parse_string "<a><b/><c><d/></c></a>" in
        check int "size" 4 (Tree.size t);
        check string "root" "a" (Tag.to_string t.Tree.tag));
    Alcotest.test_case "skips declaration, comments, text, attributes" `Quick (fun () ->
        let doc =
          "<?xml version=\"1.0\"?><!-- hi --><a x=\"1\" y='2'>text<b/><!-- there \
           -->more<![CDATA[<raw>]]><c/></a>"
        in
        let t = Xml_parser.parse_string doc in
        check int "children" 2 (Array.length t.Tree.children));
    Alcotest.test_case "rejects mismatched tags" `Quick (fun () ->
        match Xml_parser.parse_string "<a><b></a></b>" with
        | exception Xml_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "rejects trailing garbage" `Quick (fun () ->
        match Xml_parser.parse_string "<a/><b/>" with
        | exception Xml_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "rejects empty input" `Quick (fun () ->
        match Xml_parser.parse_string "   " with
        | exception Xml_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "100,000 nested elements parse" `Quick (fun () ->
        check int "size" 100_000 (Tree.size (Xml_parser.parse_string (nested_elements 100_000))));
    Alcotest.test_case "writer emits self-closing leaves" `Quick (fun () ->
        let t = Tree.elt "a" [ Tree.elt "b" [] ] in
        check string "xml" "<a><b/></a>" (Xml_writer.to_string t));
    Alcotest.test_case "declaration flag" `Quick (fun () ->
        let t = Tree.elt "doc" [] in
        check bool "has decl" true
          (String.length (Xml_writer.to_string ~declaration:true t) > String.length "<doc/>"));
  ]

let parser_props =
  [
    QCheck2.Test.make ~name:"xml: parse . write = id" ~count:150
      (Gen.tree_gen ~size:80 ())
      ~print:Gen.tree_print
      (fun tree -> Tree.equal tree (Xml_parser.parse_string (Xml_writer.to_string tree)));
  ]

let xml_alphabet =
  [| '<'; '>'; '/'; 'a'; 'b'; ':'; '='; '"'; '\''; '!'; '-'; '?'; '['; ']'; 'C'; 'D'; 'A'; 'T';
     ' '; '\n'; '&'; '\000'; '\255' |]

let xml_error = function Xml_parser.Parse_error _ -> true | _ -> false

let fuzz_props =
  List.map
    (fun (kind, gen) ->
      QCheck2.Test.make ~name:("xml: " ^ kind ^ " input raises only Parse_error") ~count:300 gen
        ~print:String.escaped
        (Gen.only_parse_error ~is_parse_error:xml_error Xml_parser.parse_string))
    [
      ("random", Gen.fuzz_string ~alphabet:xml_alphabet);
      ( "mutated",
        Gen.mutated ~alphabet:xml_alphabet
          QCheck2.Gen.(Gen.tree_gen ~size:200 () >|= Xml_writer.to_string ~declaration:true) );
    ]

(* --- Axis semantics ------------------------------------------------------ *)

let axis_tests =
  [
    Alcotest.test_case "axes on the sample document" `Quick (fun () ->
        let t = Gen.sample_doc () in
        ignore (Tree.index t);
        check int "children of root" 3 (Tree_axes.count Axis.Child t);
        check int "descendants of root" 13 (Tree_axes.count Axis.Descendant t);
        check int "descendant-or-self" 14 (Tree_axes.count Axis.Descendant_or_self t);
        let first = t.Tree.children.(0) in
        check int "following-siblings" 2 (Tree_axes.count Axis.Following_sibling first);
        check int "preceding-siblings" 0 (Tree_axes.count Axis.Preceding_sibling first);
        check int "self" 1 (Tree_axes.count Axis.Self first);
        check int "parent of root" 0 (Tree_axes.count Axis.Parent t);
        let deep = first.Tree.children.(0).Tree.children.(0) in
        check int "ancestors" 3 (Tree_axes.count Axis.Ancestor deep);
        check int "ancestor-or-self" 4 (Tree_axes.count Axis.Ancestor_or_self deep));
    Alcotest.test_case "axis string round-trip" `Quick (fun () ->
        List.iter
          (fun axis ->
            match Axis.of_string (Axis.to_string axis) with
            | Some back -> check bool "roundtrip" true (Axis.equal axis back)
            | None -> Alcotest.fail "axis name did not round-trip")
          Axis.all);
  ]

let axis_props =
  [
    QCheck2.Test.make ~name:"axes: descendant-or-self = self + descendant" ~count:100
      (Gen.tree_gen ~size:40 ())
      ~print:Gen.tree_print
      (fun tree ->
        ignore (Tree.index tree);
        List.for_all
          (fun node ->
            Tree_axes.count Axis.Descendant_or_self node
            = Tree_axes.count Axis.Descendant node + 1)
          (Tree.nodes tree));
    QCheck2.Test.make ~name:"axes: siblings partition parent's other children" ~count:100
      (Gen.tree_gen ~size:40 ())
      ~print:Gen.tree_print
      (fun tree ->
        ignore (Tree.index tree);
        List.for_all
          (fun node ->
            match node.Tree.parent with
            | None -> true
            | Some parent ->
              Tree_axes.count Axis.Following_sibling node
              + Tree_axes.count Axis.Preceding_sibling node
              + 1
              = Array.length parent.Tree.children)
          (Tree.nodes tree));
  ]

let suite =
  [
    ("xml.tag", tag_tests);
    ("xml.tree", tree_tests);
    ("xml.ordpath", ordpath_tests);
    Gen.qsuite "xml.ordpath.props" ordpath_props;
    ("xml.parser", parser_tests);
    Gen.qsuite "xml.parser.props" parser_props;
    Gen.qsuite "xml.parser.fuzz" fuzz_props;
    ("xml.axes", axis_tests);
    Gen.qsuite "xml.axes.props" axis_props;
  ]
