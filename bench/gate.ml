type run = Rows | Compare | Workload | Skew | Shards
type test = Is of string | Is_not of string | Positive
type reference = Fixed | Key of string | Row of string * string
type kind = Hard of reference | Ratio of string * string | Backstop
type cmp = At_most | Below | At_least | Equal

type t = {
  name : string;
  runs : run list;
  section : string;
  where : (string * test) list;
  metric : string;
  kind : kind;
  cmp : cmp;
  bound : float;
  floor : float;
}

let gate ?(where = []) ?(floor = 0.) name runs section metric kind cmp bound =
  { name; runs; section; where; metric; kind; cmp; bound; floor }

let table =
  [
    (* Each baseline row against the same row of this run. io_time is
       simulated and deterministic, so its floor only absorbs rounding in
       the serialised floats; total_time includes process CPU and needs
       the larger floor. *)
    gate "count" [ Compare ] "rows" "count" Backstop Equal 0.;
    gate "total_time" [ Compare ] "rows" "total_time" Backstop At_most 1. ~floor:0.02;
    gate "io_time" [ Compare ] "rows" "io_time" Backstop At_most 1. ~floor:0.002;
    (* Contention from co-running jobs inflates process CPU 50-100%, and
       it inflates every plan of one run together: a plan's CPU relative
       to the Simple plan of the same run isolates plan-specific
       regressions, such as losing the fused automaton. The loose
       absolute backstop catches a uniform slowdown, Simple included. *)
    gate "cpu_time/simple" [ Compare ] "rows" "cpu_time" (Ratio ("plan", "simple")) At_most 1.
      ~where:[ ("plan", Is_not "simple") ] ~floor:0.005;
    gate "cpu_time" [ Compare ] "rows" "cpu_time" Backstop At_most 5. ~floor:0.01;
    (* Allocation is deterministic, so it is gated without a floor. *)
    gate "minor_words" [ Compare ] "rows" "minor_words" Backstop At_most 1.;
    (* The structural index must pay off on the selective query, in the
       run at hand. *)
    gate "q15-index-reads" [ Compare ] "rows" "page_reads"
      (Hard (Row ("plan", "xschedule"))) Below 0.2
      ~where:[ ("query", Is "q15"); ("plan", Is "xindex") ];
    (* The result-cache front door must pay for itself by an order of
       magnitude on repeat traffic. Both regimes share the simulated disk
       and the host, so the within-run ratio is gated hard; the
       cross-run comparison includes wall-clock CPU and only backstops. *)
    gate "skew-speedup" [ Compare; Skew ] "skew" "speedup" (Hard Fixed) At_least 10.;
    gate "skew-speedup-backstop" [ Compare ] "skew" "speedup" Backstop At_least 5.;
    (* The violation and completion counts cover the cache-off and the
       cache-on run together. *)
    gate "skew-violations" [ Rows; Skew ] "skew" "violations" (Hard Fixed) At_most 0.;
    gate "skew-jobs" [ Rows; Skew ] "skew" "completed" (Hard (Key "jobs")) Equal 2.;
    gate "skew-front-door" [ Rows; Skew ] "skew" "front_door_cache_off" (Hard Fixed) At_most 0.;
    gate "workload-violations" [ Workload ] "workload" "violations" (Hard Fixed) At_most 0.;
    gate "workload-pinned" [ Workload ] "workload" "pinned" (Hard Fixed) At_most 0.;
    gate "workload-jobs" [ Workload ] "workload" "jobs" (Hard (Key "expected_jobs")) Equal 1.;
    (* A livelocked latch or a restart storm fails loudly here. *)
    gate "writer-commits" [ Workload ] "workload" "writer_commits" (Hard Fixed) At_least 1.
      ~where:[ ("writers", Positive) ];
    gate "writer-reader-p99" [ Workload ] "workload" "reader_p99"
      (Hard (Key "writer_free_reader_p99")) At_most 10. ~floor:1.
      ~where:[ ("writers", Positive) ];
    (* The concurrent run must beat [clients] independent serial passes,
       or the session layer shares no I/O across queries. *)
    gate "workload-sharing" [ Workload ] "workload" "page_reads" (Hard (Key "read_budget")) Below 1.
      ~where:[ ("serial_page_reads", Positive) ];
    gate "shards-violations" [ Shards ] "shards_summary" "violations" (Hard Fixed) At_most 0.;
    gate "shards-jobs" [ Shards ] "shards_summary" "jobs" (Hard (Key "expected_jobs")) Equal 1.;
    (* A collapsing tenant shows up as a p99 far off the median; the
       floor keeps tiny runs, whose median is near zero, from tripping
       on scheduler quantisation. *)
    gate "tenant-p99" [ Shards ] "shards_summary" "tenant_p99" (Hard (Key "tenant_p99_median"))
      At_most 10. ~floor:1.;
    (* Sharding that loses to colocation is a routing bug. *)
    gate "shards-wall" [ Shards ] "shards_summary" "wall_simulated"
      (Hard (Key "single_shard_wall")) At_most 1.05 ~floor:1e-6;
  ]

type failure = { gate : string; label : string; detail : string }

let id_keys = [ "query"; "plan"; "scale" ]

let label section obj =
  match List.map (fun k -> Json.member k obj) id_keys with
  | [ Some q; Some p; Some s ] ->
    Printf.sprintf "%s/%s/sf%.2f" (Json.str q) (Json.str p) (Json.num s)
  | _ -> section

let objects section doc =
  match Json.member section doc with
  | Some (Json.List xs) -> Some xs
  | Some (Json.Obj _ as o) -> Some [ o ]
  | _ -> None

let applies g obj =
  List.for_all
    (fun (key, test) ->
      match (test, Json.member key obj) with
      | Is s, Some (Json.String v) -> v = s
      | Is_not s, Some (Json.String v) -> v <> s
      | Positive, Some v -> Json.num v > 0.
      | _ -> false)
    g.where

let number obj key =
  match Json.member key obj with
  | Some v -> Json.num v
  | None -> raise (Json.Malformed (key ^ " missing"))

let same_row obj other = List.for_all (fun k -> Json.member k obj = Json.member k other) id_keys

(* The row of [rows] that is [obj] with [field] set to [value]. *)
let yardstick rows obj (field, value) =
  List.find_opt
    (fun r ->
      Json.member field r = Some (Json.String value)
      && List.for_all (fun k -> k = field || Json.member k r = Json.member k obj) id_keys)
    rows

let holds cmp value limit =
  match cmp with
  | At_most -> value <= limit
  | Below -> value < limit
  | At_least -> value >= limit
  | Equal -> value = limit

let symbol = function At_most -> "<=" | Below -> "<" | At_least -> ">=" | Equal -> "="

let check g ~tolerance ?baseline doc =
  let verdict obj ?reference value limit =
    if holds g.cmp value limit then None
    else
      let against =
        match reference with Some r -> Printf.sprintf " (baseline %.6g)" r | None -> ""
      in
      Some
        {
          gate = g.name;
          label = label g.section obj;
          detail =
            Printf.sprintf "%s = %.6g, must be %s %.6g%s" g.metric value (symbol g.cmp) limit
              against;
        }
  in
  let current = objects g.section doc in
  match (g.kind, baseline) with
  | Hard reference, _ -> (
    match current with
    | None -> [ { gate = g.name; label = g.section; detail = "section missing" } ]
    | Some objs ->
      List.filter_map
        (fun obj ->
          let scale =
            match reference with
            | _ when not (applies g obj) -> None
            | Fixed -> Some 1.
            | Key k -> Some (number obj k)
            | Row (field, value) ->
              Option.map (fun r -> number r g.metric) (yardstick objs obj (field, value))
          in
          let limit s = (g.bound *. s) +. g.floor in
          Option.bind scale (fun s -> verdict obj (number obj g.metric) (limit s)))
        objs)
  | (Ratio _ | Backstop), None -> []
  | (Ratio _ | Backstop), Some base ->
    let base_objs = Option.value (objects g.section base) ~default:[] in
    let objs = Option.value current ~default:[] in
    List.filter_map
      (fun bobj ->
        match List.find_opt (same_row bobj) objs with
        | None when applies g bobj && g.cmp = Equal ->
          Some
            { gate = g.name; label = label g.section bobj; detail = "missing from the current run" }
        | None -> None
        | Some _ when not (applies g bobj) -> None
        | Some obj -> (
          let reference =
            match g.kind with
            | Ratio (field, value) ->
              let yard rows o =
                Option.fold ~none:0. ~some:(fun r -> number r g.metric)
                  (yardstick rows o (field, value))
              in
              let bs = yard base_objs bobj and cs = yard objs obj in
              if bs > 0. && cs > 0. then Some (number bobj g.metric /. bs *. cs) else None
            | _ -> Some (number bobj g.metric)
          in
          match reference with
          | None -> None
          | Some r ->
            let limit =
              match g.cmp with
              | At_most | Below -> r +. Float.max (g.bound *. tolerance *. r) g.floor
              | At_least -> (r /. (1. +. (g.bound *. tolerance))) -. g.floor
              | Equal -> r
            in
            verdict obj ~reference:r (number obj g.metric) limit))
      base_objs

let evaluate ?(gates = table) ~run ?baseline ~tolerance doc =
  let active g = List.mem run g.runs || (baseline <> None && List.mem Compare g.runs) in
  List.concat_map (fun g -> if active g then check g ~tolerance ?baseline doc else []) gates

let pp_failure ppf f = Format.fprintf ppf "gate %s: %s: %s" f.gate f.label f.detail
