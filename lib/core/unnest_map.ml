module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Path = Xnav_xpath.Path

let create ctx ~step ~dedup producer =
  let counters = ctx.Context.counters in
  let seen = Node_id.Seen.create () in
  let current = ref None in
  let rec next () =
    match !current with
    | Some enum -> begin
      match enum () with
      | None ->
        current := None;
        next ()
      | Some (info : Store.info) ->
        if Path.matches step.Path.test info.tag then begin
          if dedup && not (Node_id.Seen.add seen info.id) then begin
            counters.Context.dedup_hits <- counters.Context.dedup_hits + 1;
            next ()
          end
          else begin
            counters.Context.instances <- counters.Context.instances + 1;
            Some info
          end
        end
        else next ()
    end
    | None -> begin
      match producer () with
      | None -> None
      | Some (info : Store.info) ->
        current := Some (Store.global_axis ctx.Context.store step.Path.axis info.id);
        next ()
    end
  in
  next
