module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
open Path_instance

type t = {
  visit : Io_operator.t;
  factory : unit -> unit -> Node_id.t option;
  sweep : Io_operator.sweep;
  mutable restarted : bool;
}

(* The scan holds at most its current view and schedules no
   asynchronous I/O. *)
let abandon t =
  Io_operator.clear t.visit;
  t.restarted <- true

let rec next t =
  let v = t.visit in
  if Context.fallback v.ctx && not t.restarted then begin
    (* Fallback: drop the scan, restart the producer, act as identity. *)
    abandon t;
    v.contexts <- t.factory ()
  end;
  if t.restarted then begin
    match v.contexts () with
    | None -> None
    | Some id ->
      let info = Store.info v.ctx.Context.store id in
      Some { s_l = 0; n_l = id; left_incomplete = false; s_r = 0; n_r = R_info info }
  end
  else begin
    match Queue.take_opt v.agenda with
    | Some _ as instance -> instance
    | None -> (
      Io_operator.release v;
      match Io_operator.advance t.sweep with
      | None -> None
      | Some pid ->
        let c = v.ctx.Context.counters in
        c.Context.clusters_visited <- c.Context.clusters_visited + 1;
        if Context.tracing v.ctx then
          Context.emit v.ctx (fun () -> Printf.sprintf "XScan: scan cluster %d" pid);
        let view = Store.view v.ctx.Context.store pid in
        Io_operator.pin v view;
        Io_operator.load v pid view;
        next t)
  end

let create ctx ~path_len ~summary ~contexts =
  let visit = Io_operator.create ctx ~path_len ~summary ~contexts:(contexts ()) in
  let sweep = Io_operator.sweep ctx.Context.store in
  let t = { visit; factory = contexts; sweep; restarted = false } in
  Io_operator.handle visit ~next:(fun () -> next t) ~abandon:(fun () -> abandon t)
