module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Node_record = Xnav_store.Node_record
module Path = Xnav_xpath.Path
module Buffer_manager = Xnav_storage.Buffer_manager
module Ordpath = Xnav_xml.Ordpath
open Path_instance

type result = {
  per_path : Store.info list array;
  counts : int array;
  fell_back : bool array;
  metrics : Exec.metrics;
}

(* One path's pipeline: a feed queue standing in for the scan, the XStep
   chain, and the XAssembly on top. *)
type lane = {
  ctx : Context.t;
  path : Path.t;
  path_len : int;
  dslash : bool;
  feed : Path_instance.t Queue.t;
  top : unit -> Store.info option;
  nodes : Store.info Vec.t;  (* arrival order *)
}

let make_lane ?config store ~context_is_root path =
  if path = [] then invalid_arg "Multi.run: empty path";
  if not (Path.is_downward path) then
    invalid_arg "Multi.run: shared-scan evaluation requires downward axes only";
  let ctx = Context.create ?config store in
  let path_len = Path.length path in
  let dslash = context_is_root && Path.starts_with_descendant_any path in
  let feed = Queue.create () in
  let producer () = Queue.take_opt feed in
  let chain =
    (* Shared-scan lanes honour the same chain knob as Exec (no Plan
       here, so the config field alone decides). *)
    if ctx.Context.config.Context.fused then Fused.create ctx ~path producer
    else
      List.fold_left
        (fun (producer, i) step -> (Xstep.create ctx ~i ~step producer, i + 1))
        (producer, 1) path
      |> fst
  in
  let top = Xassembly.create ctx ~path_len ~xschedule:None ~dslash chain in
  { ctx; path; path_len; dslash; feed; top; nodes = Vec.create () }

let drain lane =
  let rec go () =
    match lane.top () with
    | None -> ()
    | Some info ->
      Vec.push lane.nodes info;
      go ()
  in
  go ()

let run ?config ?contexts ?(ordered = true) ~cold store paths =
  if paths = [] then invalid_arg "Multi.run: no paths";
  let contexts = match contexts with Some c -> c | None -> [ Store.root store ] in
  let contexts = List.sort Node_id.compare contexts in
  let context_is_root =
    match contexts with [ c ] -> Node_id.equal c (Store.root store) | _ -> false
  in
  let lanes = Array.of_list (List.map (make_lane ?config store ~context_is_root) paths) in
  let snap = Exec.snapshot ~cold (Store.buffer store) [ store ] in

  let first = Store.first_page store in
  let last = first + Store.page_count store - 1 in
  let remaining_contexts = ref contexts in
  for pid = first to last do
    let view = Store.view store pid in
    Fun.protect ~finally:(fun () -> Store.release store view) @@ fun () ->
    (* Contexts located in this cluster (the list is sorted). *)
    let here = ref [] in
    let rec take () =
      match !remaining_contexts with
      | id :: rest when Node_id.cluster id = pid ->
        here := id :: !here;
        remaining_contexts := rest;
        take ()
      | _ -> ()
    in
    take ();
    let here = List.rev !here in
    let ups = Store.up_slots view in
    Array.iter
      (fun lane ->
        (* A lane that fell back is recomputed with the Simple method
           after the scan; feeding it further instances is wasted work,
           and its XSteps now enumerate globally — which can exhaust a
           tiny buffer while the scan view is pinned. *)
        if Context.fallback lane.ctx then ()
        else begin
        List.iter
          (fun (id : Node_id.t) ->
            match Store.get view id.Node_id.slot with
            | Node_record.Core core ->
              Queue.add
                {
                  s_l = 0;
                  n_l = id;
                  left_incomplete = false;
                  s_r = 0;
                  n_r = R_core { view; slot = id.Node_id.slot; core };
                }
                lane.feed
            | Node_record.Down _ | Node_record.Up _ ->
              invalid_arg "Multi.run: context is a border record")
          here;
        List.iter
          (fun slot ->
            let id = Store.id_of view slot in
            for step = 0 to lane.path_len - 1 do
              lane.ctx.Context.counters.Context.specs_created <-
                lane.ctx.Context.counters.Context.specs_created + 1;
              Queue.add
                {
                  s_l = step;
                  n_l = id;
                  left_incomplete = true;
                  s_r = step;
                  n_r = R_entry { view; slot };
                }
                lane.feed
            done)
          ups;
        (* The lane can enter fallback mid-drain (memory budget hit);
           its global enumeration may then find every frame pinned.
           Abandon the drain — the Simple recomputation below replaces
           the lane's nodes wholesale. *)
        (try drain lane with Buffer_manager.Buffer_full -> Queue.clear lane.feed)
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
          let r = Exec.run ?config ~contexts ~ordered:false store lane.path Plan.simple in
          Vec.clear lane.nodes;
          List.iter (Vec.push lane.nodes) r.Exec.nodes;
          Counters.add acc r.Exec.metrics
        end)
      (Counters.create ()) lanes
  in
  Exec.measure ~who:"Multi.run" snap metrics;
  let finish lane =
    (* XAssembly already deduplicates; Simple-recomputed lanes were
       deduplicated by Exec. One in-place sort per lane. *)
    if ordered then
      Vec.sorted_to_list (fun (a : Store.info) b -> Ordpath.compare a.ordpath b.ordpath) lane.nodes
    else Vec.to_list lane.nodes
  in
  let per_path = Array.map finish lanes in
  {
    per_path;
    counts = Array.map List.length per_path;
    fell_back;
    metrics;
  }
