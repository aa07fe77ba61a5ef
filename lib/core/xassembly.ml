module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
open Path_instance

(* A speculation stored in [S], unswizzled. *)
type spec_right =
  | Sr_result of Store.info  (* right-complete at the final step *)
  | Sr_entry of int * Node_id.t  (* right-incomplete: (s_r, target Up) *)

type spec = { sp_l : int; sp_n : Node_id.t; right : spec_right }

let create ctx ~path_len ~push ~dslash producer =
  let counters = ctx.Context.counters in
  (* R, split into reachability (per step) and the final result set. *)
  let r_reach = Array.init (path_len + 1) (fun _ -> Node_id.Tbl.create 64) in
  let r_result : unit Node_id.Tbl.t = Node_id.Tbl.create 256 in
  (* S, indexed by left end. *)
  let s_store = Array.init (path_len + 1) (fun _ -> Node_id.Tbl.create 64) in
  let s_count = ref 0 in
  let resolved : Store.info Queue.t = Queue.create () in

  let reachable s id = (dslash && s <= 1) || Node_id.Tbl.mem r_reach.(s) id in

  let emit_result info =
    if not (Node_id.Tbl.mem r_result info.Store.id) then begin
      Node_id.Tbl.replace r_result info.Store.id ();
      counters.Context.results_emitted <- counters.Context.results_emitted + 1;
      if Context.tracing ctx then
        Context.emit ctx (fun () ->
            Printf.sprintf "XAssembly: full path -> result %s" (Node_id.to_string info.Store.id));
      Queue.add info resolved
    end
    else counters.Context.dedup_hits <- counters.Context.dedup_hits + 1
  in

  let clear_s () =
    Array.iter Node_id.Tbl.reset s_store;
    s_count := 0
  in

  let store_spec spec =
    if Context.fallback ctx then ()
    else begin
      if Context.tracing ctx then
        Context.emit ctx (fun () ->
            Printf.sprintf "XAssembly: store speculation (if %s reachable at step %d)"
              (Node_id.to_string spec.sp_n) spec.sp_l);
      let bucket = Option.value ~default:[] (Node_id.Tbl.find_opt s_store.(spec.sp_l) spec.sp_n) in
      Node_id.Tbl.replace s_store.(spec.sp_l) spec.sp_n (spec :: bucket);
      counters.Context.specs_stored <- counters.Context.specs_stored + 1;
      incr s_count;
      if !s_count > counters.Context.s_peak then counters.Context.s_peak <- !s_count;
      if !s_count > ctx.Context.config.Context.memory_budget then begin
        (* Low-memory situation: revert to the simple method. *)
        Context.enter_fallback ctx;
        clear_s ()
      end
    end
  in

  (* Propagate a newly reachable right end through R, S and Q. *)
  let rec add_reachable s target =
    if reachable s target then () (* edge already crossed for this step *)
    else begin
      if not (dslash && s <= 1) then Node_id.Tbl.replace r_reach.(s) target ();
      (* Hand the continuation to the I/O operator. *)
      push ~s_r:s target;
      (* Discharge speculations anchored at (s, target). *)
      match Node_id.Tbl.find_opt s_store.(s) target with
      | None -> ()
      | Some specs ->
        Node_id.Tbl.remove s_store.(s) target;
        s_count := !s_count - List.length specs;
        List.iter
          (fun spec ->
            counters.Context.specs_resolved <- counters.Context.specs_resolved + 1;
            if Context.tracing ctx then
              Context.emit ctx (fun () ->
                  Printf.sprintf "XAssembly: speculation at (%d,%s) discharged" s
                    (Node_id.to_string target));
            match spec.right with
            | Sr_result info -> emit_result info
            | Sr_entry (s_r, target') -> add_reachable s_r target')
          specs
    end
  in

  let info_of_right p =
    match p.n_r with
    | R_core { view; slot; core } ->
      {
        Store.id = Store.id_of view slot;
        tag = core.Xnav_store.Node_record.tag;
        ordpath = core.Xnav_store.Node_record.ordpath;
      }
    | R_info info -> info
    | R_pending _ | R_entry _ -> assert false
  in

  let rec next () =
    match Queue.take_opt resolved with
    | Some info -> Some info
    | None -> begin
      match producer () with
      | None -> None
      | Some p -> begin
        match p.n_r with
        | R_core _ | R_info _ ->
          (* Right-complete instances reach the top only at the final
             step (inner steps are consumed by their XStep). *)
          assert (p.s_r = path_len);
          let info = info_of_right p in
          if p.left_incomplete then begin
            if Context.fallback ctx then () (* S discarded: scan restart recomputes *)
            else if reachable p.s_l p.n_l then emit_result info
            else store_spec { sp_l = p.s_l; sp_n = p.n_l; right = Sr_result info }
          end
          else emit_result info;
          next ()
        | R_pending target ->
          if p.left_incomplete then begin
            if Context.fallback ctx then ()
            else if reachable p.s_l p.n_l then add_reachable p.s_r target
            else store_spec { sp_l = p.s_l; sp_n = p.n_l; right = Sr_entry (p.s_r, target) }
          end
          else add_reachable p.s_r target;
          next ()
        | R_entry _ ->
          (* An unextended speculation seed: its XStep found nothing to
             continue with — per the XStep spec it should have been
             filtered, but a zero-length path cannot occur here. *)
          assert false
      end
    end
  in
  next
