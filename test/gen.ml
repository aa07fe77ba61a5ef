(* Shared generators and helpers for the test suite. *)

module Tree = Xnav_xml.Tree
module Tag = Xnav_xml.Tag

let tag_pool = [| "a"; "b"; "c"; "d"; "e" |]

(* A random labeled ordered tree of at most [size] nodes. *)
let tree_gen ?(tags = tag_pool) ~size () : Tree.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let tag = oneofa tags >|= Tag.of_string in
  let rec build budget =
    if budget <= 1 then tag >|= fun t -> (Tree.leaf t, 1)
    else begin
      int_range 0 (min 5 (budget - 1)) >>= fun arity ->
      tag >>= fun t ->
      let rec children budget_left acc used = function
        | 0 -> return (List.rev acc, used)
        | k ->
          build (max 1 (budget_left / k)) >>= fun (child, n) ->
          children (budget_left - n) (child :: acc) (used + n) (k - 1)
      in
      children (budget - 1) [] 0 arity >|= fun (kids, used) -> (Tree.make t kids, used + 1)
    end
  in
  int_range 1 size >>= fun budget ->
  build budget >|= fst

let tree_print tree = Format.asprintf "%a" Tree.pp tree

(* A random downward path of one to four self/child/descendant/
   descendant-or-self steps over the tag pool, [*] and [node()]. *)
let path_gen =
  let open QCheck2.Gen in
  let axis =
    oneofl
      Xnav_xml.Axis.[ Child; Descendant; Descendant_or_self; Self ]
  in
  let test =
    oneof
      [
        (oneofa tag_pool >|= fun name -> Xnav_xpath.Path.Name (Tag.of_string name));
        return Xnav_xpath.Path.Wildcard;
        return Xnav_xpath.Path.Any_node;
      ]
  in
  list_size (int_range 1 4) (pair axis test)
  >|= List.map (fun (axis, test) -> Xnav_xpath.Path.step axis test)

(* Whether the store's path summary counts the nodes every prefix of
   [path] selects exactly as the reference evaluator does on [tree]. *)
let summary_exact store tree path =
  let counts = Xnav_store.Path_partition.step_counts (Xnav_store.Store.partition store) path in
  Array.length counts = List.length path
  && List.for_all
       (fun i -> counts.(i) = Xnav_xpath.Eval_ref.count tree (Xnav_xpath.Path.prefix path (i + 1)))
       (List.init (Array.length counts) Fun.id)

(* A wide tree: a root with many children, some of which have small
   subtrees — exercises sibling-run splitting across clusters. *)
let wide_tree ~children () =
  let kid i =
    let t = Tag.of_string tag_pool.(i mod Array.length tag_pool) in
    if i mod 3 = 0 then Tree.make t [ Tree.leaf (Tag.of_string "x"); Tree.leaf (Tag.of_string "y") ]
    else Tree.leaf t
  in
  Tree.make (Tag.of_string "root") (List.init children kid)

(* A deep path-shaped tree. *)
let deep_tree ~depth () =
  let rec go d =
    let t = Tag.of_string tag_pool.(d mod Array.length tag_pool) in
    if d = 0 then Tree.leaf t else Tree.make t [ go (d - 1) ]
  in
  go depth

(* The running example document used across tests: shaped after the
   paper's Fig. 2 (tags A, B, C under a root), sized so that small
   payloads split it into several clusters. *)
let sample_doc () =
  let e = Tree.elt in
  e "R"
    [
      e "A" [ e "B" [ e "C" [] ]; e "C" [ e "B" [] ] ];
      e "C" [ e "A" [ e "B" [] ]; e "B" [] ];
      e "A" [ e "A" [ e "C" [ e "B" [] ] ] ];
    ]

(* Parser fuzzing: strings of up to 4 KB over [alphabet]. *)
let fuzz_string ~alphabet =
  QCheck2.Gen.(string_size ~gen:(oneofa alphabet) (int_range 0 4096))

(* Parser fuzzing: a string from [base] with one to eight random edits —
   a byte of [alphabet] inserted or overwritten, or a byte deleted. *)
let mutated ~alphabet base =
  let open QCheck2.Gen in
  let edit s =
    let n = String.length s in
    triple (int_range 0 2) (int_range 0 n) (oneofa alphabet) >|= fun (op, i, c) ->
    if op = 0 || i = n then String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    else if op = 1 then String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    else String.mapi (fun j d -> if j = i then c else d) s
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  pair base (int_range 1 8) >>= fun (s, k) -> edits k s

(* A parser property: on [input] the parser returns or raises its
   documented error, and nothing else. *)
let only_parse_error ~is_parse_error parse input =
  match parse input with _ -> true | exception e when is_parse_error e -> true

(* The committed bench baseline, found by walking up from the working
   directory: [dune runtest] runs the suite inside the build tree, where
   the baseline is a declared dependency, and a developer may run the
   test binary from the repo root. *)
let bench_baseline () =
  let rec up dir =
    let file = Filename.concat dir "BENCH_results.json" in
    if Sys.file_exists file then file
    else begin
      let parent = Filename.dirname dir in
      if parent = dir then failwith "BENCH_results.json: not found above the working directory";
      up parent
    end
  in
  Xnav_bench.Json.read (up (Sys.getcwd ()))

(* CI determinism: every property test and differential tier runs from
   this seed, so a CI failure reproduces locally with the exact same
   cases. Override with XNAV_TEST_SEED=<int> (printed at suite start). *)
let test_seed =
  match Sys.getenv_opt "XNAV_TEST_SEED" with
  | None -> 20050614
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "XNAV_TEST_SEED must be an integer, got %S" s))

let () = Printf.printf "test seed: %d (override with XNAV_TEST_SEED)\n%!" test_seed

(* Each property test gets its own generator state from the fixed seed,
   so determinism survives test filtering and reordering. *)
let qsuite name tests =
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| test_seed |]) t)
      tests )

(* Fresh disk with small pages (forces clustering on small documents). *)
let small_disk ?(page_size = 512) () =
  let config = { Xnav_storage.Disk.default_config with page_size } in
  Xnav_storage.Disk.create ~config ()

let import_store ?strategy ?payload ?(page_size = 512) ?(capacity = 64) tree =
  let disk = small_disk ~page_size () in
  let import = Xnav_store.Import.run ?strategy ?payload disk tree in
  let buffer = Xnav_storage.Buffer_manager.create ~capacity disk in
  (Xnav_store.Store.attach buffer import, import)

(* Rebuild a Tree.t from the store by walking the global child axis —
   the canonical structure check used by import and update tests. *)
let reconstruct store =
  let module Store = Xnav_store.Store in
  let rec build (id : Xnav_store.Node_id.t) =
    let inf = Store.info store id in
    let next = Store.global_axis store Xnav_xml.Axis.Child id in
    let rec kids acc =
      match next () with
      | None -> List.rev acc
      | Some (child : Store.info) -> kids (build child.Store.id :: acc)
    in
    Xnav_xml.Tree.make inf.Store.tag (kids [])
  in
  build (Store.root store)

(* Whether [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The slots of every [Up] border record of a pinned page, ascending. *)
let up_slots view =
  let module Store = Xnav_store.Store in
  let rec go slot acc =
    let slot = Store.next_up view slot in
    if slot < 0 then List.rev acc else go (slot + 1) (slot :: acc)
  in
  go 0 []
