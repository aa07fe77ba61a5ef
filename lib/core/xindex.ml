module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Node_record = Xnav_store.Node_record
module Path_partition = Xnav_store.Path_partition
module Path = Xnav_xpath.Path
open Path_instance

(* A border continuation XAssembly handed back: resume step [s_r + 1]
   at [target] (same shape as {!Xschedule.push}). *)
type item = { s_l : int; n_l : Node_id.t; s_r : int; target : Node_id.t }

(* A fully resolved class served covering: ids, ordpath labels and the
   class tag are all in the partition, so results need no page at all. *)
type cov = { ids : Node_id.t array; labels : Xnav_xml.Ordpath.t array; tag : Xnav_xml.Tag.t }

type t = {
  ctx : Context.t;
  path_len : int;
  resolved : int;  (* seeds enter the chain with S_R = resolved *)
  covering : cov array;  (* non-empty only when [resolved = path_len] *)
  mutable cov_class : int;
  mutable cov_idx : int;
  entries : Node_id.t array;  (* residual mode: entries in (cluster, slot) order *)
  mutable entry_idx : int;
  factory : unit -> unit -> Node_id.t option;
  mutable contexts : unit -> Node_id.t option;  (* only used after fallback *)
  mutable view : Store.view option;
  agenda : Path_instance.t Queue.t;
  pending : (int, item Queue.t) Hashtbl.t;  (* cluster -> continuations *)
  mutable pending_count : int;
  mutable restarted : bool;
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

let create ctx ~path ~resolve ~contexts =
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
  {
    ctx;
    path_len;
    resolved;
    covering;
    cov_class = 0;
    cov_idx = 0;
    entries;
    entry_idx = 0;
    factory = contexts;
    contexts = (fun () -> None);
    view = None;
    agenda = Queue.create ();
    pending = Hashtbl.create 16;
    pending_count = 0;
    restarted = false;
  }

let resolved t = t.resolved
let covering t = t.resolved = t.path_len

let entry_count t =
  Array.length t.entries
  + Array.fold_left (fun acc c -> acc + Array.length c.ids) 0 t.covering

let pending_size t = t.pending_count

let release_view t =
  match t.view with
  | None -> ()
  | Some view ->
    Store.release t.ctx.Context.store view;
    t.view <- None

let counters t = t.ctx.Context.counters

let visit t pid =
  release_view t;
  counters t |> fun c ->
  c.Context.clusters_visited <- c.Context.clusters_visited + 1;
  c.Context.index_clusters <- c.Context.index_clusters + 1;
  let view = Store.view t.ctx.Context.store pid in
  t.view <- Some view;
  view

(* Materialise the continuations waiting on [pid] against its view —
   the same target mapping as {!Xschedule}'s instantiate. *)
let drain_pending t pid view =
  match Hashtbl.find_opt t.pending pid with
  | None -> ()
  | Some q ->
    Hashtbl.remove t.pending pid;
    Queue.iter
      (fun item ->
        t.pending_count <- t.pending_count - 1;
        (counters t).Context.index_residuals <- (counters t).Context.index_residuals + 1;
        let slot = item.target.Node_id.slot in
        let n_r =
          match Store.get view slot with
          | Node_record.Core core -> R_core { view; slot; core }
          | Node_record.Up _ -> R_entry { view; slot }
          | Node_record.Down _ -> invalid_arg "Xindex: continuation target is a Down record"
        in
        Queue.add
          { s_l = item.s_l; n_l = item.n_l; left_incomplete = false; s_r = item.s_r; n_r }
          t.agenda)
      q

let push t ~s_l ~n_l ~s_r ~target =
  let cluster = Node_id.cluster target in
  let q =
    match Hashtbl.find_opt t.pending cluster with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add t.pending cluster q;
      q
  in
  Queue.add { s_l; n_l; s_r; target } q;
  t.pending_count <- t.pending_count + 1

let min_pending t =
  Hashtbl.fold (fun pid _ acc -> match acc with Some m when m <= pid -> acc | _ -> Some pid)
    t.pending None

(* Tear the operator down mid-run; see {!Xschedule.abandon}. The index
   holds at most its current view and schedules no asynchronous I/O. *)
let abandon t =
  release_view t;
  Queue.clear t.agenda;
  Hashtbl.reset t.pending;
  t.pending_count <- 0;
  t.entry_idx <- Array.length t.entries;
  t.cov_class <- Array.length t.covering;
  t.restarted <- true;
  t.contexts <- (fun () -> None)

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
      Some { s_l = 0; n_l = id; left_incomplete = false; s_r = t.path_len; n_r = R_info info }
    end
  end

let rec next t =
  if Context.fallback t.ctx && not t.restarted then begin
    (* Fallback: drop the index, restart the contexts, act as identity
       (the border-transparent XStep chain recomputes from scratch). *)
    t.restarted <- true;
    release_view t;
    Queue.clear t.agenda;
    Hashtbl.reset t.pending;
    t.pending_count <- 0;
    t.entry_idx <- Array.length t.entries;
    t.cov_class <- Array.length t.covering;
    t.contexts <- t.factory ()
  end;
  if t.restarted then begin
    match t.contexts () with
    | None -> None
    | Some id ->
      let info = Store.info t.ctx.Context.store id in
      Some { s_l = 0; n_l = id; left_incomplete = false; s_r = 0; n_r = R_info info }
  end
  else begin
    match cov_next t with
    | Some instance -> Some instance
    | None -> (
      match Queue.take_opt t.agenda with
      | Some instance -> Some instance
      | None ->
        if t.entry_idx < Array.length t.entries then begin
          let pid = Node_id.cluster t.entries.(t.entry_idx) in
          Context.emit t.ctx (fun () -> Printf.sprintf "XIndex: seed cluster %d" pid);
          let view = visit t pid in
          while
            t.entry_idx < Array.length t.entries
            && Node_id.cluster t.entries.(t.entry_idx) = pid
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
                t.agenda
            | Node_record.Down _ | Node_record.Up _ ->
              invalid_arg "Xindex: partition entry is a border record"
          done;
          (* Continuations already waiting on this cluster ride along —
             no second visit. *)
          drain_pending t pid view;
          next t
        end
        else begin
          match min_pending t with
          | None ->
            release_view t;
            None
          | Some pid ->
            Context.emit t.ctx (fun () -> Printf.sprintf "XIndex: resume cluster %d" pid);
            let view = visit t pid in
            drain_pending t pid view;
            next t
        end)
  end
