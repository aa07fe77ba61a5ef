module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Path_partition = Xnav_store.Path_partition
module Path = Xnav_xpath.Path
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager

type choice = Auto | Force_simple | Force_schedule | Force_scan | Force_index

type estimate = {
  touched_nodes : int;
  est_pages : int;
  fused : bool;
  cost_simple : float;
  cost_schedule : float;
  cost_scan : float;
  cost_index : float;
}

(* CPU cost constants (seconds per unit); rough but only their order of
   magnitude matters for regime separation. *)
let cpu_per_node = 2e-6
let cpu_per_spec = 1e-6

(* The fused automaton replaces one Path_instance allocation plus one
   closure dispatch per extension with an array-indexed state push;
   measured per-extension cost drops well over 2x (see bench --micro),
   priced conservatively here. *)
let cpu_per_node_fused = 8e-7

(* Residual index seeding is only priced honestly when the seed prefix
   actually prunes: if the tail would still walk (almost) the whole
   document, seeding degenerates to plain navigation and keeps the
   conservative >=-schedule price. *)
let residual_selectivity = 0.8

let estimate ?(fused = true) store path =
  let chain_cpu = if fused then cpu_per_node_fused else cpu_per_node in
  let node_count = max 1 (Store.node_count store) in
  let page_count = max 1 (Store.page_count store) in
  let config = Disk.config (Buffer_manager.disk (Store.buffer store)) in
  let random_cost =
    (* An average random fetch: half-stroke seek + rotation + transfer. *)
    (config.Disk.seek_max /. 2.) +. config.Disk.rotational +. config.Disk.transfer
  in
  (* Exact per-step result sizes from the summary's live class counts;
     for a path the walk does not cover (a non-downward step, or longer
     than it accepts) a per-tag upper bound stands in. *)
  let partition = Store.partition store in
  let resolved = Path.indexable_prefix path in
  let per_step, prefix_classes =
    if Path.is_downward path && Path.length path <= Path_partition.max_steps then
      let counts, classes = Path_partition.walk partition path ~select:resolved in
      (counts, Some classes)
    else
      let bound (s : Path.step) =
        match s.Path.test with Path.Name tag -> Store.tag_count store tag | _ -> node_count
      in
      (Array.of_list (List.map bound path), None)
  in
  let touched_nodes =
    (* The clamp matters: an empty path or an empty result sums to 0,
       which would collapse every cost to ~0 and let the tie-break
       silently pick XScan. At least the context node is touched. *)
    Array.fold_left ( + ) 0 per_step |> min (node_count * Path.length path) |> max 1
  in
  (* Assume touched nodes occupy their proportional share of the pages. *)
  let est_pages =
    min page_count
      (int_of_float (ceil (float_of_int touched_nodes /. float_of_int node_count *. float_of_int page_count)))
    |> max 1
  in
  let touched = float_of_int touched_nodes in
  (* Reordered shapes run the (possibly fused) chain; the Simple method
     always pays the full per-node iterator cost. *)
  let cost_scan =
    (float_of_int page_count *. config.Disk.transfer)
    +. (float_of_int node_count *. float_of_int (Path.length path) *. cpu_per_spec)
    +. (touched *. chain_cpu)
  in
  let cost_schedule =
    (* Asynchronous reordering roughly halves the per-page random cost. *)
    (float_of_int est_pages *. random_cost /. 2.) +. (touched *. chain_cpu)
  in
  let cost_simple =
    (* Every step re-fetches its share of pages at full random cost. *)
    (float_of_int est_pages *. random_cost) +. (touched *. cpu_per_node)
  in
  let cost_index =
    (* The summary resolves the path's self/child prefix exactly. Fully
       resolved (covering) paths are answered from the partition's entry
       lists — id, tag, ordpath — with zero page I/O, so their cost is
       pure per-entry CPU. A path with a residual suffix (a descendant
       step ends exact resolution) pays an exact seed-cluster walk
       (consecutive clusters at transfer cost, gaps at random cost) plus
       navigation of the tail. When the summary shows the tail confined
       to a minority of the document (the seed prefix prunes — q6'-style
       queries), that navigation is priced honestly: the residual
       operator serves pending clusters smallest-pid-first and the
       seeds' subtrees are contiguous under the depth-first cluster
       layout, so the tail's page share is fetched at near-sequential
       transfer cost. When the tail still spans (almost) the whole
       document (a tail step selects > [residual_selectivity] of the nodes — //x,
       q7), seeding buys nothing and the term keeps the conservative
       >=-schedule price, so Auto never prefers it there. The entry
       lists are live, so the price holds after updates too. Infinite
       when the path cannot be index-seeded. *)
    match prefix_classes with
    | Some classes when path <> [] ->
      let entries =
        List.fold_left
          (fun acc c -> acc + Array.length (Path_partition.class_entries partition c))
          0 classes
      in
      if resolved = Path.length path then float_of_int entries *. cpu_per_node
      else begin
        let seen = Hashtbl.create 64 in
        List.iter
          (fun c ->
            Array.iter
              (fun (id : Node_id.t) -> Hashtbl.replace seen (Node_id.cluster id) ())
              (Path_partition.class_entries partition c))
          classes;
        let pids = List.sort compare (Hashtbl.fold (fun pid () acc -> pid :: acc) seen []) in
        let io, _ =
          List.fold_left
            (fun (acc, prev) pid ->
              let cost =
                match prev with
                | Some p when pid = p + 1 -> config.Disk.transfer
                | _ -> random_cost
              in
              (acc +. cost, Some pid))
            (0.0, None) pids
        in
        let tail = Array.sub per_step resolved (Array.length per_step - resolved) in
        let tail_work = float_of_int (Array.fold_left ( + ) 0 tail) in
        let frac = float_of_int (Array.fold_left max 0 tail) /. float_of_int node_count in
        if frac <= residual_selectivity then
          io +. random_cost
          +. (max 1.0 (ceil (frac *. float_of_int page_count)) *. config.Disk.transfer)
          +. (float_of_int entries *. cpu_per_node)
          +. (tail_work *. chain_cpu)
        else
          io
          +. (float_of_int est_pages *. random_cost /. 2.)
          +. (float_of_int entries *. cpu_per_node)
          +. (touched *. chain_cpu)
      end
    | _ -> infinity
  in
  { touched_nodes; est_pages; fused; cost_simple; cost_schedule; cost_scan; cost_index }

let compile ?(choice = Auto) ?(context_is_root = true) store path =
  let downward = Path.is_downward path in
  (* Root-context plans seed only what the path summary proves feasible,
     except where the // optimisation applies to a scan. *)
  let seeding = if context_is_root then Plan.Summary else Plan.All in
  let scan_seeding =
    if context_is_root && Path.starts_with_descendant_any path then Plan.Dslash else seeding
  in
  match choice with
  | Force_simple -> Plan.simple
  | Force_schedule ->
    if not downward then
      invalid_arg "Compile: XSchedule plans require downward axes only";
    Plan.xschedule ~seeding ()
  | Force_scan ->
    if not downward then invalid_arg "Compile: XScan plans require downward axes only";
    Plan.xscan ~seeding:scan_seeding ()
  | Force_index ->
    if not downward then invalid_arg "Compile: XIndex plans require downward axes only";
    Plan.xindex ()
  | Auto ->
    if not downward then Plan.simple
    else begin
      let e = estimate store path in
      (* The partition's classes are anchored at the document root, so
         index plans only apply to root-context evaluation. *)
      if context_is_root && e.cost_index < e.cost_schedule && e.cost_index < e.cost_scan then
        Plan.xindex ()
      else if e.cost_scan < e.cost_schedule then Plan.xscan ~seeding:scan_seeding ()
      else Plan.xschedule ~seeding ()
    end

let plan_for ?choice ?(rewrite = false) ?context_is_root store path =
  let path = if rewrite then Xnav_xpath.Rewrite.normalize path else path in
  (path, compile ?choice ?context_is_root store path)

let pp_estimate ppf e =
  Format.fprintf ppf
    "touched~%d pages~%d | simple %.4fs, xschedule %.4fs, xscan %.4fs, xindex %.4fs | chain %s @@ %.1e s/node"
    e.touched_nodes e.est_pages e.cost_simple e.cost_schedule e.cost_scan e.cost_index
    (if e.fused then "fused" else "per-step")
    (if e.fused then cpu_per_node_fused else cpu_per_node)
