(** Physical plans for location paths.

    Three plan shapes, matching the paper's evaluation (Sec. 6.2): the
    Simple nested-loop method, and the two reordered shapes built from
    the XStep chain topped by XAssembly, with either XSchedule
    (asynchronous I/O) or XScan (one sequential scan) as the single
    I/O-performing operator. *)

type io_operator =
  | Io_schedule of { speculative : bool }
  | Io_scan
  | Io_index of { resolve : int option }
      (** Seed instances from the path partition's entry lists instead
          of navigating from the root. [resolve] caps how many leading
          steps the path summary resolves ([None] = the whole downward
          path); the XStep tail evaluates the residual suffix, with
          border crossings served back through the index operator. *)

(** Which speculative instances a scan, or a speculative schedule, seeds
    at the [Up] borders of a loaded cluster. *)
type seeding =
  | All
      (** The paper's rule (Sec. 5.4): one left-incomplete instance per
          [Up] border and step. *)
  | Dslash
      (** [All], plus XAssembly's [//]-prefix optimisation
          (Sec. 5.4.5.4): steps 0 and 1 count as reachable everywhere.
          Only sound on scan plans whose path starts with
          [descendant-or-self::node()] and whose context is the document
          root; an XSchedule seeds it as [All]. *)
  | Summary
      (** Only the seeds the store's path partition proves could ever be
          discharged (see {!Path_instance.summary}). Applies to
          root-context runs; any other run seeds [All]. *)

type t =
  | Simple of { dedup_intermediate : bool }
  | Reordered of { io : io_operator; seeding : seeding }
      (** Whether the step chain runs fused is not part of the plan:
          {!Context.config.fused} decides. [seeding] only matters to
          plans that speculate: XScan and the speculative XSchedule. *)

val simple : t

val xschedule : ?speculative:bool -> ?seeding:seeding -> unit -> t
(** [speculative] (default [true]) is the only speculation switch
    (Sec. 5.4.4); the run config does not override it. [seeding]
    defaults to [All], the paper's operator. *)

val xscan : ?seeding:seeding -> unit -> t
(** [seeding] defaults to [All], the paper's operator. *)

val xindex : ?resolve:int -> unit -> t
(** The structural-index plan, seeded from the {!Xnav_store.Store}
    partition; {!Exec} degrades it to the speculative XSchedule shape
    for non-root contexts. [resolve] is clamped to [0 .. length path] at
    execution time; values below the path length force residual XStep
    navigation — mainly a test knob. *)

val name : t -> string
(** Short name as used in the paper's figures: "simple", "xschedule",
    "xscan", with the speculative variant and a non-[All] seeding
    annotated: "xschedule+spec+summary", "xscan+dslash". *)

val explain_with : fused:bool -> Format.formatter -> Xnav_xpath.Path.t * t -> unit
(** Renders the operator tree, e.g. for the CLI's [explain] command;
    [fused] is the run config's {!Context.config.fused}. *)

val explain : Format.formatter -> Xnav_xpath.Path.t * t -> unit
(** [explain_with ~fused:true], the default config's chain. *)
