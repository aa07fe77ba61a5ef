(* The bench harness's JSON module and gate table. The boundary cases
   restate, gate by gate, the limit the harness enforced when each check
   was still hand-written: a value just inside it must pass, and one just
   outside it must be flagged under that gate's name. A loosened bound,
   floor or comparison in the table fails here. *)

module Json = Xnav_bench.Json
module Gate = Xnav_bench.Gate

let check = Alcotest.check

(* How the value must relate to the limit. *)
type side = At_most | Below | At_least | Exactly

(* (gate, reference, the limit at that reference, side). The reference is
   the baseline value of a backstop or ratio gate and the yardstick of a
   hard gate (ignored by a fixed one). Ratio documents carry a yardstick
   of 1 in the baseline and 2 in the run, which doubles the reference.
   Gates with an absolute floor get a second case where the floor, not
   the relative bound, decides. *)
let cases =
  [
    ("count", 435., 435., Exactly);
    ("total_time", 1.0, 1.25, At_most);
    ("total_time", 0.01, 0.03, At_most);
    ("io_time", 1.0, 1.25, At_most);
    ("io_time", 0.001, 0.003, At_most);
    ("cpu_time/simple", 0.5, 1.25, At_most);
    ("cpu_time/simple", 0.001, 0.007, At_most);
    ("cpu_time", 1.0, 2.25, At_most);
    ("cpu_time", 0.001, 0.011, At_most);
    ("minor_words", 1000., 1250., At_most);
    ("q15-index-reads", 100., 20., Below);
    ("skew-speedup", 0., 10., At_least);
    ("skew-speedup-backstop", 18., 8., At_least);
    ("skew-violations", 0., 0., At_most);
    ("skew-jobs", 256., 512., Exactly);
    ("skew-front-door", 0., 0., At_most);
    ("workload-violations", 0., 0., At_most);
    ("workload-pinned", 0., 0., At_most);
    ("workload-jobs", 24., 24., Exactly);
    ("writer-commits", 0., 1., At_least);
    ("writer-reader-p99", 0.5, 6.0, At_most);
    ("writer-reader-p99", 0., 1.0, At_most);
    ("workload-sharing", 1000., 1000., Below);
    ("shards-violations", 0., 0., At_most);
    ("shards-jobs", 32., 32., Exactly);
    ("tenant-p99", 0.2, 3.0, At_most);
    ("tenant-p99", 0., 1.0, At_most);
    ("shards-wall", 2.0, 2.100001, At_most);
    ("shards-wall", 0., 1e-6, At_most);
  ]

let num v = Json.Float v

(* One object of the gate's section that the gate applies to, with
   [fields] on top. *)
let subject (g : Gate.t) fields =
  let identity =
    if g.Gate.section = "rows" then
      [ ("query", Json.String "q"); ("plan", Json.String "p"); ("scale", num 1.) ]
    else []
  in
  let filters =
    List.map
      (fun (k, test) ->
        ( k,
          match test with
          | Gate.Is s -> Json.String s
          | Gate.Is_not s -> Json.String (s ^ "-not")
          | Gate.Positive -> Json.Int 1 ))
      g.Gate.where
  in
  let keys = List.map fst (filters @ fields) in
  Json.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) identity @ filters @ fields)

let with_key k v = function
  | Json.Obj fields -> Json.Obj (List.remove_assoc k fields @ [ (k, v) ])
  | j -> j

let section (g : Gate.t) objs =
  Json.Obj [ (g.Gate.section, if g.Gate.section = "rows" then Json.List objs else List.hd objs) ]

(* The run's document and the baseline for [value] against [reference]. *)
let documents (g : Gate.t) ~reference ~value =
  let m = g.Gate.metric in
  let obj = subject g [ (m, num value) ] in
  match g.Gate.kind with
  | Gate.Hard Gate.Fixed -> (section g [ obj ], Json.Obj [])
  | Gate.Hard (Gate.Key k) -> (section g [ with_key k (num reference) obj ], Json.Obj [])
  | Gate.Hard (Gate.Row (f, v)) ->
    (section g [ obj; with_key f (Json.String v) (with_key m (num reference) obj) ], Json.Obj [])
  | Gate.Ratio (f, v) ->
    let yard x o = with_key f (Json.String v) (with_key m (num x) o) in
    ( section g [ obj; yard 2. obj ],
      section g [ with_key m (num reference) obj; yard 1. obj ] )
  | Gate.Backstop -> (section g [ obj ], section g [ with_key m (num reference) obj ])

let evaluate (g : Gate.t) (doc, baseline) =
  let run =
    match List.filter (( <> ) Gate.Compare) g.Gate.runs with r :: _ -> r | [] -> Gate.Rows
  in
  Gate.evaluate ~gates:[ g ] ~run ~baseline ~tolerance:0.25 doc

let find name = List.find (fun (g : Gate.t) -> g.Gate.name = name) Gate.table

let boundaries () =
  List.iter
    (fun (name, reference, limit, side) ->
      let g = find name in
      let delta = 1e-6 *. Float.max (Float.abs limit) 1e-3 in
      let inside, outside =
        match side with
        | At_most -> (limit -. delta, limit +. delta)
        | Below -> (limit -. delta, limit)
        | At_least -> (limit +. delta, limit -. delta)
        | Exactly -> (limit, limit +. 1.)
      in
      let what = Printf.sprintf "%s at reference %g" name reference in
      check Alcotest.(list string) (what ^ ", just inside") []
        (List.map (fun f -> f.Gate.gate) (evaluate g (documents g ~reference ~value:inside)));
      check Alcotest.(list string) (what ^ ", just outside") [ name ]
        (List.map (fun f -> f.Gate.gate) (evaluate g (documents g ~reference ~value:outside))))
    cases

let every_gate_has_a_case () =
  List.iter
    (fun (g : Gate.t) ->
      check Alcotest.bool g.Gate.name true
        (List.exists (fun (name, _, _, _) -> name = g.Gate.name) cases))
    Gate.table

(* A baseline row the run lacks fails the count gate alone; a missing
   summary section fails its hard gate. *)
let missing_objects () =
  let row =
    Json.Obj [ ("query", Json.String "q"); ("plan", Json.String "gone"); ("scale", num 1.) ]
  in
  let baseline = Json.Obj [ ("rows", Json.List [ with_key "count" (Json.Int 3) row ]) ] in
  let flagged =
    Gate.evaluate ~run:Gate.Rows ~baseline ~tolerance:0.25 (Json.Obj [ ("rows", Json.List []) ])
      ~gates:(List.filter (fun (g : Gate.t) -> g.Gate.section = "rows") Gate.table)
  in
  check Alcotest.(list string) "missing row" [ "q/gone/sf1.00" ]
    (List.map (fun f -> f.Gate.label) flagged);
  check Alcotest.(list string) "missing skew section" [ "skew-speedup" ]
    (List.map
       (fun f -> f.Gate.gate)
       (Gate.evaluate ~gates:[ find "skew-speedup" ] ~run:Gate.Skew ~tolerance:0.25 (Json.Obj [])))

let printer_bytes () =
  let v =
    Json.Obj
      [
        ("f", Json.Float 0.02);
        ("i", Json.Int (-3));
        ("b", Json.Bool false);
        ("s", Json.String "q\"\\\n\001");
        ("l", Json.List [ Json.Null; Json.List [] ]);
      ]
  in
  let text = {|{"f":0.020000,"i":-3,"b":false,"s":"q\"\\\n\u0001","l":[null,[]]}|} in
  check Alcotest.string "bytes" text (Json.to_string v);
  check Alcotest.bool "round trip" true (Json.of_string (" " ^ text ^ "\n") = v);
  check Alcotest.bool "non-finite floats are rejected" true
    (match Json.to_string (Json.List [ Json.Float nan ]) with
    | _ -> false
    | exception Json.Malformed _ -> true);
  check Alcotest.bool "trailing garbage is rejected" true
    (match Json.of_string "{} x" with _ -> false | exception Json.Malformed _ -> true)

let suite =
  [
    ( "gates",
      [
        Alcotest.test_case "each gate passes just inside its limit and flags just outside" `Quick
          boundaries;
        Alcotest.test_case "every gate of the table has a boundary case" `Quick
          every_gate_has_a_case;
        Alcotest.test_case "missing rows and sections are flagged" `Quick missing_objects;
        Alcotest.test_case "the printer's bytes and the parser's round trip" `Quick printer_bytes;
      ] );
  ]
