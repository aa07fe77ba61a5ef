module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Node_record = Xnav_store.Node_record
module Path_partition = Xnav_store.Path_partition
module Path = Xnav_xpath.Path
open Path_instance

(* A fully resolved class served covering: ids, ordpath labels and the
   class tag are all in the partition, so results need no page at all. *)
type cov = { ids : Node_id.t array; labels : Xnav_xml.Ordpath.t array; tag : Xnav_xml.Tag.t }

type t = {
  visit : Io_operator.t;  (* residual continuations, the current view *)
  resolved : int;  (* seeds enter the chain with S_R = resolved *)
  covering : cov array;  (* non-empty only when [resolved = path_len] *)
  mutable cov_class : int;
  mutable cov_idx : int;
  entries : Node_id.t array;  (* residual mode: entries in (cluster, slot) order *)
  mutable entry_idx : int;
}

(* Resolution depth and the partition classes matching the resolved
   prefix. The summary resolves self/child prefixes exactly; a
   descendant step ends exact resolution (its matches sit at arbitrary
   depths), so cap any requested depth there, and at the longest prefix
   the summary walks, and leave the rest to the XStep tail. *)
let plan_classes partition ~path ~resolve =
  let exact = min Path_partition.max_steps (Path.indexable_prefix path) in
  let resolved = match resolve with None -> exact | Some k -> max 0 (min k exact) in
  (resolved, snd (Path_partition.walk partition (Path.prefix path resolved) ~select:resolved))

let counters t = t.visit.ctx.Context.counters

let visit t pid =
  Io_operator.release t.visit;
  let c = counters t in
  c.Context.clusters_visited <- c.Context.clusters_visited + 1;
  c.Context.index_clusters <- c.Context.index_clusters + 1;
  let view = Store.view t.visit.ctx.Context.store pid in
  Io_operator.pin t.visit view;
  view

(* Continuations waiting on [pid], against its view. *)
let residuals t pid view =
  let c = counters t in
  c.Context.index_residuals <- c.Context.index_residuals + Io_operator.serve t.visit pid view

let push t ~s_r target = ignore (Io_operator.enqueue t.visit { s_l = 0; n_l = target; s_r; target })

let min_pending t =
  Hashtbl.fold (fun pid _ acc -> match acc with Some m when m <= pid -> acc | _ -> Some pid)
    t.visit.queue None

(* The index holds at most its current view and schedules no
   asynchronous I/O. *)
let abandon t =
  Io_operator.clear t.visit;
  t.entry_idx <- Array.length t.entries;
  t.cov_class <- Array.length t.covering

(* Next covering result, straight from the partition: no view, no page. *)
let rec cov_next t =
  if t.cov_class >= Array.length t.covering then None
  else begin
    let c = t.covering.(t.cov_class) in
    if t.cov_idx >= Array.length c.ids then begin
      t.cov_class <- t.cov_class + 1;
      t.cov_idx <- 0;
      cov_next t
    end
    else begin
      let i = t.cov_idx in
      t.cov_idx <- i + 1;
      (counters t).Context.index_entries <- (counters t).Context.index_entries + 1;
      let id = c.ids.(i) in
      let info = { Store.id; tag = c.tag; ordpath = c.labels.(i) } in
      Some { s_l = 0; n_l = id; left_incomplete = false; s_r = t.visit.path_len; n_r = R_info info }
    end
  end

let tracing t = Context.tracing t.visit.ctx

let rec next t =
  match cov_next t with
  | Some _ as instance -> instance
  | None -> (
    match Queue.take_opt t.visit.agenda with
    | Some _ as instance -> instance
    | None ->
      if t.entry_idx < Array.length t.entries then begin
        let pid = Node_id.cluster t.entries.(t.entry_idx) in
        if tracing t then
          Context.emit t.visit.ctx (fun () -> Printf.sprintf "XIndex: seed cluster %d" pid);
        let view = visit t pid in
        while
          t.entry_idx < Array.length t.entries && Node_id.cluster t.entries.(t.entry_idx) = pid
        do
          let id = t.entries.(t.entry_idx) in
          t.entry_idx <- t.entry_idx + 1;
          let slot = id.Node_id.slot in
          match Store.get view slot with
          | Node_record.Core core ->
            (counters t).Context.index_entries <- (counters t).Context.index_entries + 1;
            Queue.add
              {
                s_l = 0;
                n_l = id;
                left_incomplete = false;
                s_r = t.resolved;
                n_r = R_core { view; slot; core };
              }
              t.visit.agenda
          | Node_record.Down _ | Node_record.Up _ ->
            invalid_arg "Xindex: partition entry is a border record"
        done;
        (* Continuations already waiting on this cluster ride along —
           no second visit. *)
        residuals t pid view;
        next t
      end
      else begin
        match min_pending t with
        | None ->
          Io_operator.release t.visit;
          None
        | Some pid ->
          if tracing t then
            Context.emit t.visit.ctx (fun () -> Printf.sprintf "XIndex: resume cluster %d" pid);
          let view = visit t pid in
          residuals t pid view;
          next t
      end)

let create ctx ~path ~resolve =
  let partition = Store.partition ctx.Context.store in
  let path_len = Path.length path in
  let resolved, classes = plan_classes partition ~path ~resolve in
  let covering, entries =
    if resolved = path_len then
      ( classes
        |> List.map (fun c ->
               {
                 ids = Path_partition.class_entries partition c;
                 labels = Path_partition.class_labels partition c;
                 tag = Path_partition.class_tag partition c;
               })
        |> Array.of_list,
        [||] )
    else begin
      let entries =
        classes
        |> List.concat_map (fun c -> Array.to_list (Path_partition.class_entries partition c))
        |> Array.of_list
      in
      Array.sort Node_id.compare entries;
      ([||], entries)
    end
  in
  let visit =
    Io_operator.create ~clusters:16 ctx ~path_len ~summary:None ~contexts:(fun () -> None)
  in
  let t = { visit; resolved; covering; cov_class = 0; cov_idx = 0; entries; entry_idx = 0 } in
  Io_operator.handle visit ~push:(push t) ~next:(fun () -> next t) ~abandon:(fun () -> abandon t)
