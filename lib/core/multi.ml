module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Path = Xnav_xpath.Path
module Buffer_manager = Xnav_storage.Buffer_manager

type result = {
  per_path : Store.info list array;
  counts : int array;
  fell_back : bool array;
  metrics : Exec.metrics;
}

(* One path's pipeline: a feed queue standing in for the scan, the
   shared step chain over it, and the XAssembly on top. *)
type lane = {
  ctx : Context.t;
  path : Path.t;
  path_len : int;
  feed : Path_instance.t Queue.t;
  top : unit -> Store.info option;
  nodes : Store.info Vec.t;  (* arrival order *)
}

let make_lane ~config store ~context_is_root path =
  if path = [] then invalid_arg "Multi.run: empty path";
  if not (Path.is_downward path) then
    invalid_arg "Multi.run: shared-scan evaluation requires downward axes only";
  let ctx = Exec.context ~config store in
  let path_len = Path.length path in
  let dslash = context_is_root && Path.starts_with_descendant_any path in
  let feed = Queue.create () in
  let top =
    Xassembly.create ctx ~path_len ~xschedule:None ~dslash
      (Exec.chain ctx path (fun () -> Queue.take_opt feed))
  in
  { ctx; path; path_len; feed; top; nodes = Vec.create () }

let drain lane =
  let rec go () =
    match lane.top () with
    | None -> ()
    | Some info ->
      Vec.push lane.nodes info;
      go ()
  in
  go ()

let run ?(config = Context.default_config) ?contexts ?(ordered = true) ~cold store paths =
  if paths = [] then invalid_arg "Multi.run: no paths";
  let contexts = match contexts with Some c -> c | None -> [ Store.root store ] in
  let contexts = List.sort Node_id.compare contexts in
  let lanes =
    Array.of_list
      (List.map (make_lane ~config store ~context_is_root:(Exec.root_only store contexts)) paths)
  in
  let snap = Exec.snapshot ~cold (Store.buffer store) [ store ] in

  let first = Store.first_page store in
  let last = first + Store.page_count store - 1 in
  let remaining_contexts = ref contexts in
  for pid = first to last do
    let view = Store.view store pid in
    Fun.protect ~finally:(fun () -> Store.release store view) @@ fun () ->
    (* Contexts located in this cluster (the list is sorted). *)
    let rec take here =
      match !remaining_contexts with
      | id :: rest when Node_id.cluster id = pid ->
        remaining_contexts := rest;
        take (Path_instance.context view id :: here)
      | _ -> List.rev here
    in
    let here = take [] in
    Array.iter
      (fun lane ->
        (* A lane that fell back is recomputed with the Simple method
           after the scan; feeding it further instances is wasted work,
           and its XSteps now enumerate globally — which can exhaust a
           tiny buffer while the scan view is pinned. *)
        if not (Context.fallback lane.ctx) then begin
          List.iter (fun instance -> Queue.add instance lane.feed) here;
          Path_instance.speculate lane.ctx ~path_len:lane.path_len view lane.feed;
          (* The lane can enter fallback mid-drain (memory budget hit);
             its global enumeration may then find every frame pinned.
             Abandon the drain — the Simple recomputation below replaces
             the lane's nodes wholesale. *)
          try drain lane with Buffer_manager.Buffer_full -> Queue.clear lane.feed
        end)
      lanes
  done;

  (* A lane that fell back lost speculative state the shared scan cannot
     replay; recompute it with the Simple method (warm buffer). *)
  let fell_back = Array.map (fun lane -> Context.fallback lane.ctx) lanes in
  let metrics =
    Array.fold_left
      (fun acc lane ->
        let acc = Counters.add acc lane.ctx.Context.counters in
        if not (Context.fallback lane.ctx) then acc
        else begin
          let r = Exec.run ~config ~contexts ~ordered:false store lane.path Plan.simple in
          Vec.clear lane.nodes;
          List.iter (Vec.push lane.nodes) r.Exec.nodes;
          Counters.add acc r.Exec.metrics
        end)
      (Counters.create ()) lanes
  in
  Exec.measure ~who:"Multi.run" snap metrics;
  let per_path = Array.map (fun lane -> Exec.answer ~ordered lane.nodes) lanes in
  {
    per_path;
    counts = Array.map List.length per_path;
    fell_back;
    metrics;
  }
