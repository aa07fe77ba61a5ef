(* Extended queries: predicates and unions — parser, reference
   evaluator, and the hybrid physical executor. *)

module Tree = Xnav_xml.Tree
module Axis = Xnav_xml.Axis
module Import = Xnav_store.Import
module Buffer_manager = Xnav_storage.Buffer_manager
module Store = Xnav_store.Store
module Path = Xnav_xpath.Path
module Query = Xnav_xpath.Query
module Query_ref = Xnav_xpath.Query_ref
module Xpath_parser = Xnav_xpath.Xpath_parser
module Query_exec = Xnav_core.Query_exec
module Compile = Xnav_core.Compile

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let parse = Xpath_parser.parse_query

(* --- parser ------------------------------------------------------------------ *)

let parser_tests =
  [
    Alcotest.test_case "plain path parses as one clean branch" `Quick (fun () ->
        match parse "/a/b//c" with
        | [ branch ] ->
          check int "steps" 4 (List.length branch);
          check bool "no predicates" true (List.for_all (fun q -> q.Query.predicates = []) branch)
        | _ -> Alcotest.fail "expected one branch");
    Alcotest.test_case "predicate with a relative path" `Quick (fun () ->
        match parse "//item[mailbox/mail]" with
        | [ branch ] -> begin
          match List.rev branch with
          | last :: _ -> begin
            match last.Query.predicates with
            | [ Query.Exists steps ] -> check int "sub-steps" 2 (List.length steps)
            | _ -> Alcotest.fail "expected one Exists predicate"
          end
          | [] -> Alcotest.fail "empty branch"
        end
        | _ -> Alcotest.fail "expected one branch");
    Alcotest.test_case "and / or / not combine" `Quick (fun () ->
        match parse "//a[b and not(c) or d]" with
        | [ branch ] -> begin
          match (List.rev branch : Query.qstep list) with
          | { predicates = [ Query.Or (Query.And (_, Query.Not _), Query.Exists _) ]; _ } :: _ ->
            ()
          | _ -> Alcotest.fail "unexpected predicate shape"
        end
        | _ -> Alcotest.fail "expected one branch");
    Alcotest.test_case "nested predicates" `Quick (fun () ->
        match parse "//a[b[c]]" with
        | [ branch ] -> begin
          match List.rev branch with
          | { Query.predicates = [ Query.Exists [ sub ] ]; _ } :: _ ->
            check int "inner preds" 1 (List.length sub.Query.predicates)
          | _ -> Alcotest.fail "unexpected shape"
        end
        | _ -> Alcotest.fail "expected one branch");
    Alcotest.test_case "union of three branches" `Quick (fun () ->
        check int "branches" 3 (List.length (parse "/a | //b | /c/d")));
    Alcotest.test_case "element named 'and' still works as a step" `Quick (fun () ->
        match parse "//a[x/and/y]" with
        | [ _ ] -> ()
        | _ -> Alcotest.fail "expected one branch");
    Alcotest.test_case "plain parse rejects predicates and unions" `Quick (fun () ->
        (match Xpath_parser.parse "//a[b]" with
        | exception Xpath_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
        match Xpath_parser.parse "/a | /b" with
        | exception Xpath_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    Alcotest.test_case "unbalanced bracket is rejected" `Quick (fun () ->
        match parse "//a[b" with
        | exception Xpath_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    Alcotest.test_case "to_string round-trips through the parser" `Quick (fun () ->
        let q = parse "//a[b and not(c//d)]/e | /f" in
        let reparsed = parse (Query.to_string q) in
        check bool "same rendering" true
          (String.equal (Query.to_string q) (Query.to_string reparsed)));
  ]

(* --- reference evaluator ------------------------------------------------------- *)

let ref_tests =
  [
    Alcotest.test_case "existence predicate filters" `Quick (fun () ->
        (* A's with a C child: first child (has C), third child (no C child
           directly — its child is A). *)
        let doc = Gen.sample_doc () in
        check int "A[C]" 1 (Query_ref.count doc (parse "/A[C]")));
    Alcotest.test_case "not() inverts" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let total = Query_ref.count doc (parse "/A") in
        let with_c = Query_ref.count doc (parse "/A[C]") in
        check int "complement" (total - with_c) (Query_ref.count doc (parse "/A[not(C)]")));
    Alcotest.test_case "union merges and deduplicates" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let a = Query_ref.count doc (parse "//A") in
        let all = Query_ref.count doc (parse "//A | //A") in
        check int "dedup" a all);
    Alcotest.test_case "predicates may look upward" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        (* B's whose parent is an A. *)
        let n = Query_ref.count doc (parse "//B[parent::A]") in
        check bool "some but not all" true (n > 0 && n < Query_ref.count doc (parse "//B")));
  ]

(* --- hybrid executor vs the oracle ---------------------------------------------- *)

let agree ?(strategy = Import.Dfs) doc query_str =
  let store, import = Gen.import_store ~strategy ~payload:200 ~capacity:16 doc in
  let query = parse query_str in
  let r = Query_exec.run ~cold:true store query in
  let expected = Query_ref.eval doc query in
  ignore (Tree.index doc);
  let expected_pre = List.map (fun (n : Tree.t) -> n.Tree.preorder) expected in
  let index = Xnav_store.Node_id.Tbl.create 64 in
  Array.iteri (fun pre id -> Xnav_store.Node_id.Tbl.replace index id pre) import.Import.node_ids;
  let got_pre =
    List.map (fun (i : Store.info) -> Xnav_store.Node_id.Tbl.find index i.Store.id) r.Query_exec.nodes
  in
  got_pre = expected_pre && Buffer_manager.pinned_count (Store.buffer store) = 0

let exec_tests =
  List.map
    (fun q ->
      Alcotest.test_case q `Quick (fun () ->
          check bool "hybrid = oracle" true (agree (Gen.sample_doc ()) q)))
    [
      "/A[C]";
      "/A[not(C)]/B";
      "//A[B and C]";
      "//A[B or C]";
      "//C[A//B]";
      "//B[parent::A]";
      "//A[C]/C[B]";
      "//A | //B";
      "/A[C] | //C[B] | /R";
      "//node()[B]";
    ]
  @ [
      Alcotest.test_case "segments and checks are counted" `Quick (fun () ->
          let store, _ = Gen.import_store ~payload:200 (Gen.sample_doc ()) in
          let r = Query_exec.run ~cold:true store (parse "//A[C]/B") in
          check bool "two segments" true (r.Query_exec.segments = 2);
          check bool "checked candidates" true (r.Query_exec.predicate_checks > 0));
      Alcotest.test_case "forced plan choice is honoured on trunks" `Quick (fun () ->
          let doc = Gen.sample_doc () in
          let store, _ = Gen.import_store ~payload:200 doc in
          let r =
            Query_exec.run ~choice:Compile.Force_scan ~cold:true store (parse "//A[C]")
          in
          check int "count" (Query_ref.count doc (parse "//A[C]")) r.Query_exec.count);
    ]

(* --- randomised --------------------------------------------------------------- *)

let query_gen =
  let open QCheck2.Gen in
  let tag = oneofa Gen.tag_pool >|= fun n -> Path.Name (Xnav_xml.Tag.of_string n) in
  let test = oneof [ tag; return Path.Wildcard ] in
  let axis = oneofl [ Axis.Child; Axis.Descendant; Axis.Descendant_or_self ] in
  let plain_qstep =
    pair axis test >|= fun (a, t) -> { Query.step = Path.step a t; predicates = [] }
  in
  let rec predicate depth =
    if depth = 0 then
      list_size (int_range 1 2) plain_qstep >|= fun steps -> Query.Exists steps
    else
      oneof
        [
          (list_size (int_range 1 2) plain_qstep >|= fun steps -> Query.Exists steps);
          (pair (predicate (depth - 1)) (predicate (depth - 1)) >|= fun (a, b) -> Query.And (a, b));
          (pair (predicate (depth - 1)) (predicate (depth - 1)) >|= fun (a, b) -> Query.Or (a, b));
          (predicate (depth - 1) >|= fun p -> Query.Not p);
        ]
  in
  let qstep =
    pair axis test >>= fun (a, t) ->
    oneof [ return []; (predicate 1 >|= fun p -> [ p ]) ] >|= fun predicates ->
    { Query.step = Path.step a t; predicates }
  in
  let branch = list_size (int_range 1 3) qstep in
  list_size (int_range 1 2) branch

let props =
  [
    QCheck2.Test.make ~name:"query: hybrid executor matches the oracle" ~count:80
      QCheck2.Gen.(pair (Gen.tree_gen ~size:35 ()) query_gen)
      ~print:(fun (tree, query) ->
        Printf.sprintf "%s | %s" (Gen.tree_print tree) (Query.to_string query))
      (fun (tree, query) ->
        let store, import = Gen.import_store ~payload:180 tree in
        let r = Query_exec.run ~cold:true store query in
        ignore (Tree.index tree);
        let index = Xnav_store.Node_id.Tbl.create 64 in
        Array.iteri
          (fun pre id -> Xnav_store.Node_id.Tbl.replace index id pre)
          import.Import.node_ids;
        let got =
          List.map
            (fun (i : Store.info) -> Xnav_store.Node_id.Tbl.find index i.Store.id)
            r.Query_exec.nodes
        in
        let expected = List.map (fun (n : Tree.t) -> n.Tree.preorder) (Query_ref.eval tree query) in
        got = expected);
    QCheck2.Test.make ~name:"query: parser round-trips its own rendering" ~count:100 query_gen
      ~print:Query.to_string
      (fun query ->
        let rendered = Query.to_string query in
        String.equal rendered (Query.to_string (Xpath_parser.parse_query rendered)));
  ]

(* --- parser fuzzing -------------------------------------------------------------- *)

let xpath_alphabet =
  [| 'a'; 'b'; 'c'; 'n'; 'o'; 'd'; 'e'; 'r'; 't'; ':'; '/'; '.'; '*'; '['; ']'; '('; ')'; '|';
     ' '; '\t'; '-'; '_'; '0'; '\000'; '\255' |]

let xpath_error = function Xpath_parser.Parse_error _ -> true | _ -> false

let fuzz_props =
  let inputs =
    [
      ("random", Gen.fuzz_string ~alphabet:xpath_alphabet);
      ( "mutated path",
        Gen.mutated ~alphabet:xpath_alphabet QCheck2.Gen.(Gen.path_gen >|= Path.to_string) );
      ( "mutated query",
        Gen.mutated ~alphabet:xpath_alphabet QCheck2.Gen.(query_gen >|= Query.to_string) );
    ]
  in
  List.concat_map
    (fun (kind, gen) ->
      [
        QCheck2.Test.make ~name:("parse on " ^ kind ^ " input raises only Parse_error") ~count:300
          gen ~print:String.escaped
          (Gen.only_parse_error ~is_parse_error:xpath_error Xpath_parser.parse);
        QCheck2.Test.make
          ~name:("parse_query on " ^ kind ^ " input raises only Parse_error")
          ~count:300 gen ~print:String.escaped
          (Gen.only_parse_error ~is_parse_error:xpath_error Xpath_parser.parse_query);
      ])
    inputs

let nested_predicates n = String.concat "" (List.init n (fun _ -> "a[")) ^ "a" ^ String.make n ']'

(* OCaml 5 runs the recursive descent on a growable stack, so deep
   nesting needs no bound: both entry points return or raise Parse_error. *)
let nesting_tests =
  [
    Alcotest.test_case "100,000 nested predicates parse" `Quick (fun () ->
        let input = nested_predicates 100_000 in
        check bool "parse" true
          (Gen.only_parse_error ~is_parse_error:xpath_error Xpath_parser.parse input);
        check int "parse_query: one branch" 1 (List.length (parse input)));
  ]

let suite =
  [
    ("query.parser", parser_tests @ nesting_tests);
    Gen.qsuite "query.parser.fuzz" fuzz_props;
    ("query.ref", ref_tests);
    ("query.exec", exec_tests);
    Gen.qsuite "query.props" props;
  ]
