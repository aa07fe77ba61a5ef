(* In-memory spans recorded around calls into the engine's layers.

   A span has a name, a start and an end, the span that was open when it
   began (its parent) and the statement it belongs to. CPU spans are
   timed on the process's CPU clock around a call; simulated spans are job
   phases on the engine's simulated disk clock (submitted -> started ->
   finished), which cannot be timed from outside. Nothing is recorded
   unless [enabled] is set, so untraced runs pay one branch per call.
   Spans are kept in memory and written out once, when the run ends. *)

type clock = Cpu | Sim

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span. *)
  stmt : int;  (** -1 outside a statement. *)
  clock : clock;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_span = ref (-1)
let open_stmt = ref (-1)

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let record ~id ~name ~start ~stop ~parent ~stmt clock =
  spans := { id; name; start; stop; parent; stmt; clock } :: !spans

(* [with_span name f] runs [f], recording a CPU span around it as a
   child of the innermost open span. [stmt] opens a statement: spans
   inside it carry its id. *)
let with_span ?stmt name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = !open_span and outer_stmt = !open_stmt in
    Option.iter (fun s -> open_stmt := s) stmt;
    open_span := id;
    let stmt = !open_stmt in
    let start = Util.cpu () in
    let finish () =
      record ~id ~name ~start ~stop:(Util.cpu ()) ~parent ~stmt Cpu;
      open_span := parent;
      open_stmt := outer_stmt
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* The id of the innermost open span (to hang simulated spans under). *)
let current () = !open_span

(* A finished phase on the simulated clock; returns its id so phases can
   nest under a job span. *)
let sim ~parent ~stmt name start stop =
  if not !enabled then -1
  else begin
    let id = fresh_id () in
    record ~id ~name ~start ~stop ~parent ~stmt Sim;
    id
  end

(* Self time: the span's duration minus the part of its interval that
   its children on the same clock cover (overlapping children count
   once). Children are not clipped to the parent, so a child that
   escapes its parent shows up as a negative self time. *)
let self_times all =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) all;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.filter (fun c -> c.clock = s.clock)
        |> List.map (fun c -> (c.start, c.stop))
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, neg_infinity) kids
      in
      Hashtbl.replace self s.id (s.stop -. s.start -. covered))
    all;
  self

let all () = List.rev !spans

(* Mean self time of the spans called [name], in seconds (0 if none). *)
let mean_self self name =
  let total, n =
    List.fold_left
      (fun (t, n) s -> if s.name = name then (t +. Hashtbl.find self s.id, n + 1) else (t, n))
      (0.0, 0) (all ())
  in
  Util.per total n

(* One JSON object per line; CPU times are seconds since the first
   span, simulated times are seconds on the engine clock. *)
let write file =
  let all = all () in
  let self = self_times all in
  let epoch =
    List.fold_left (fun e s -> if s.clock = Cpu then Float.min e s.start else e) infinity all
  in
  let oc = open_out file in
  List.iter
    (fun s ->
      let base = if s.clock = Cpu then epoch else 0.0 in
      output_string oc
        (Util.jobj
           [
             ("id", string_of_int s.id);
             ("name", Util.jstring s.name);
             ("clock", Util.jstring (match s.clock with Cpu -> "cpu" | Sim -> "sim"));
             ("start", Util.jfloat (s.start -. base));
             ("end", Util.jfloat (s.stop -. base));
             ("parent", string_of_int s.parent);
             ("stmt", string_of_int s.stmt);
             ("self", Util.jfloat (Hashtbl.find self s.id));
           ]);
      output_char oc '\n')
    all;
  close_out oc
