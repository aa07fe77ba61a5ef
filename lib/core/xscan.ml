module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
open Path_instance

type t = {
  ctx : Context.t;
  path_len : int;
  factory : unit -> unit -> Node_id.t option;
  mutable contexts : unit -> Node_id.t option;
  mutable peeked : Node_id.t option;
  mutable next_page : int;
  last_page : int;
  mutable view : Store.view option;
  agenda : Path_instance.t Queue.t;
  mutable restarted : bool;
  mutable scanned : int;
}

let create ctx ~path_len ~contexts =
  let store = ctx.Context.store in
  {
    ctx;
    path_len;
    factory = contexts;
    contexts = contexts ();
    peeked = None;
    next_page = Store.first_page store;
    last_page = Store.first_page store + Store.page_count store - 1;
    view = None;
    agenda = Queue.create ();
    restarted = false;
    scanned = 0;
  }

let clusters_scanned t = t.scanned

let release_view t =
  match t.view with
  | None -> ()
  | Some view ->
    Store.release t.ctx.Context.store view;
    t.view <- None

let pull_context t =
  match t.peeked with
  | Some id ->
    t.peeked <- None;
    Some id
  | None -> t.contexts ()

(* Emit context instances located in [pid], then the speculative
   left-incomplete instances for every Up border of the cluster. *)
let load_agenda t pid view =
  let rec contexts_here () =
    match pull_context t with
    | None -> ()
    | Some id ->
      let cluster = Node_id.cluster id in
      if cluster < pid then
        invalid_arg "Xscan: context nodes must arrive sorted by cluster id"
      else if cluster > pid then t.peeked <- Some id
      else begin
        Queue.add (Path_instance.context view id) t.agenda;
        contexts_here ()
      end
  in
  contexts_here ();
  Path_instance.speculate t.ctx ~path_len:t.path_len view t.agenda

(* Tear the operator down mid-run; see {!Xschedule.abandon}. The scan
   holds at most its current view and schedules no asynchronous I/O. *)
let abandon t =
  release_view t;
  Queue.clear t.agenda;
  t.peeked <- None;
  t.restarted <- true;
  t.contexts <- (fun () -> None)

let rec next t =
  if Context.fallback t.ctx && not t.restarted then begin
    (* Fallback: drop the scan, restart the producer, act as identity. *)
    t.restarted <- true;
    release_view t;
    Queue.clear t.agenda;
    t.peeked <- None;
    t.contexts <- t.factory ()
  end;
  if t.restarted then begin
    match pull_context t with
    | None -> None
    | Some id ->
      let info = Store.info t.ctx.Context.store id in
      Some { s_l = 0; n_l = id; left_incomplete = false; s_r = 0; n_r = R_info info }
  end
  else begin
    match Queue.take_opt t.agenda with
    | Some instance -> Some instance
    | None ->
      release_view t;
      if t.next_page > t.last_page then None
      else begin
        let pid = t.next_page in
        t.next_page <- pid + 1;
        t.scanned <- t.scanned + 1;
        t.ctx.Context.counters.Context.clusters_visited <-
          t.ctx.Context.counters.Context.clusters_visited + 1;
        if Context.tracing t.ctx then
          Context.emit t.ctx (fun () -> Printf.sprintf "XScan: scan cluster %d" pid);
        let view = Store.view t.ctx.Context.store pid in
        t.view <- Some view;
        load_agenda t pid view;
        next t
      end
  end
