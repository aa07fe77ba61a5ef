module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Path = Xnav_xpath.Path
module Query = Xnav_xpath.Query

type result = {
  nodes : Store.info list;
  count : int;
  metrics : Exec.metrics;
  segments : int;
  predicate_checks : int;
}

(* --- predicate evaluation over the store -------------------------------- *)

let rec holds store id = function
  | Query.Exists steps -> exists_branch store id steps
  | Query.And (a, b) -> holds store id a && holds store id b
  | Query.Or (a, b) -> holds store id a || holds store id b
  | Query.Not p -> not (holds store id p)

and exists_branch store id = function
  | [] -> true
  | (q : Query.qstep) :: rest ->
    let next = Store.global_axis store q.Query.step.Path.axis id in
    let rec try_next () =
      match next () with
      | None -> false
      | Some (info : Store.info) ->
        if
          Path.matches q.Query.step.Path.test info.Store.tag
          && List.for_all (holds store info.Store.id) q.Query.predicates
          && exists_branch store info.Store.id rest
        then true
        else try_next ()
    in
    try_next ()

(* --- segment decomposition ------------------------------------------------ *)

(* Split a branch into (trunk steps, trailing predicates) segments: each
   segment's trunk ends at the first predicated step. *)
let segments_of branch =
  let rec go trunk = function
    | [] -> if trunk = [] then [] else [ (List.rev trunk, []) ]
    | (q : Query.qstep) :: rest ->
      if q.Query.predicates = [] then go (q.Query.step :: trunk) rest
      else (List.rev (q.Query.step :: trunk), q.Query.predicates) :: go [] rest
  in
  go [] branch

let run ?(choice = Compile.Auto) ?config ?contexts ?(ordered = true) ~cold store query =
  if query = [] then invalid_arg "Query_exec.run: empty query";
  let snap = Exec.snapshot ~cold (Store.buffer store) [ store ] in
  let root_contexts = match contexts with Some c -> c | None -> [ Store.root store ] in
  let segment_count = ref 0 in
  let predicate_checks = ref 0 in
  let metrics = ref (Counters.create ()) in

  (* Each segment's survivors are the next segment's contexts; the last
     segment's survivors are the branch's answer, kept as the infos the
     plan returned so the merge re-reads no page. *)
  let rec run_branch contexts = function
    | [] -> []
    | _ when contexts = [] -> []
    | (trunk, predicates) :: rest ->
      incr segment_count;
      let plan =
        Compile.compile ~choice ~context_is_root:(Exec.root_only store contexts) store trunk
      in
      let seg = Exec.run ?config ~contexts ~ordered:false store trunk plan in
      metrics := Counters.add !metrics seg.Exec.metrics;
      let survivors =
        if predicates = [] then seg.Exec.nodes
        else
          List.filter
            (fun (info : Store.info) ->
              incr predicate_checks;
              List.for_all (holds store info.Store.id) predicates)
            seg.Exec.nodes
      in
      if rest = [] then survivors
      else run_branch (List.map (fun (info : Store.info) -> info.Store.id) survivors) rest
  in

  (* Union merge: one final answer over every branch's survivors. *)
  let all = Vec.create () in
  List.iter
    (fun branch -> List.iter (Vec.push all) (run_branch root_contexts (segments_of branch)))
    query;
  let nodes = Exec.answer ~ordered all in
  let metrics = !metrics in
  Exec.measure ~who:"Query_exec.run" snap metrics;
  {
    nodes;
    count = List.length nodes;
    metrics;
    segments = !segment_count;
    predicate_checks = !predicate_checks;
  }
