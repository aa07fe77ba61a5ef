module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Node_record = Xnav_store.Node_record
open Path_instance

type item = { s_l : int; n_l : Node_id.t; s_r : int; target : Node_id.t }

type t = {
  ctx : Context.t;
  path_len : int;
  summary : Path_instance.summary option;
  mutable contexts : unit -> Node_id.t option;
  mutable peeked : Node_id.t option;
  queue : (int, item Queue.t) Hashtbl.t;
  mutable pending : int;
  agenda : Path_instance.t Queue.t;
  mutable current : Store.view option;
}

let no_contexts () = None

let create ?(clusters = 64) ctx ~path_len ~summary ~contexts =
  {
    ctx;
    path_len;
    summary;
    contexts;
    peeked = None;
    queue = Hashtbl.create clusters;
    pending = 0;
    agenda = Queue.create ();
    current = None;
  }

let enqueue t item =
  t.pending <- t.pending + 1;
  let cluster = Node_id.cluster item.target in
  match Hashtbl.find_opt t.queue cluster with
  | Some q ->
    Queue.add item q;
    false
  | None ->
    let q = Queue.create () in
    Queue.add item q;
    Hashtbl.replace t.queue cluster q;
    true

(* A queued target against the view of its cluster. *)
let instantiate view item =
  let slot = item.target.Node_id.slot in
  let n_r =
    match Store.get view slot with
    | Node_record.Core core -> R_core { view; slot; core }
    | Node_record.Up _ -> R_entry { view; slot }
    | Node_record.Down _ -> invalid_arg "Io_operator: continuation target is a Down border"
  in
  { s_l = item.s_l; n_l = item.n_l; left_incomplete = false; s_r = item.s_r; n_r }

let serve t pid view =
  match Hashtbl.find_opt t.queue pid with
  | None -> 0
  | Some q ->
    Queue.iter (fun item -> Queue.add (instantiate view item) t.agenda) q;
    Hashtbl.remove t.queue pid;
    let n = Queue.length q in
    t.pending <- t.pending - n;
    n

let pull t =
  match t.peeked with
  | Some id ->
    t.peeked <- None;
    Some id
  | None -> t.contexts ()

let rec contexts_in t pid view =
  match pull t with
  | None -> ()
  | Some id ->
    let cluster = Node_id.cluster id in
    if cluster < pid then invalid_arg "Io_operator: context nodes must arrive sorted by cluster id"
    else if cluster > pid then t.peeked <- Some id
    else begin
      Queue.add (Path_instance.context view id) t.agenda;
      contexts_in t pid view
    end

let seed t view =
  Path_instance.speculate t.ctx ~path_len:t.path_len ?summary:t.summary view t.agenda

let load t pid view =
  contexts_in t pid view;
  seed t view

let release t =
  match t.current with
  | None -> ()
  | Some view ->
    Store.release t.ctx.Context.store view;
    t.current <- None

let pin t view =
  release t;
  t.current <- Some view

let clear t =
  release t;
  Queue.clear t.agenda;
  Hashtbl.reset t.queue;
  t.pending <- 0;
  t.peeked <- None;
  t.contexts <- no_contexts

type sweep = { mutable next_page : int; last_page : int }

let sweep store =
  let first = Store.first_page store in
  { next_page = first; last_page = first + Store.page_count store - 1 }

let advance s =
  if s.next_page > s.last_page then None
  else begin
    let pid = s.next_page in
    s.next_page <- pid + 1;
    Some pid
  end

let each_cluster store f =
  let s = sweep store in
  let rec go () =
    match advance s with
    | None -> ()
    | Some pid ->
      let view = Store.view store pid in
      Fun.protect ~finally:(fun () -> Store.release store view) (fun () -> f pid view);
      go ()
  in
  go ()

type handle = {
  visit : t;
  next : unit -> Path_instance.t option;
  push : s_r:int -> Node_id.t -> unit;
  abandon : unit -> unit;
  demand : unit -> int list;
  window : unit -> (int * int) option;
}

let ignore_push ~s_r:_ _ = ()
let no_demand () = []
let no_window () = None

let handle ?(push = ignore_push) ?(demand = no_demand) ?(window = no_window) visit ~next ~abandon =
  { visit; next; push; abandon; demand; window }
