(** The bench harness's performance and correctness gates, declared as
    data and evaluated by one loop.

    Each gate reads one metric from the objects of one section of a
    document the harness wrote (every element of the ["rows"] array, or
    a summary object such as ["skew"] or ["workload"]) and compares it to
    a limit. Adding a gate means adding one row to {!table}. *)

(** Which run evaluates a gate. [Compare] is active, beside the run's own
    mode, whenever a baseline is given. *)
type run =
  | Rows  (** [--json]: the per-plan rows document. *)
  | Compare  (** [--compare FILE]: against the baseline document. *)
  | Workload  (** [--workload], with or without [--writers]. *)
  | Skew  (** [--workload --skew]. *)
  | Shards  (** [--workload --shards]. *)

(** A filter on an object's own keys. *)
type test =
  | Is of string  (** The key holds this string. *)
  | Is_not of string
  | Positive  (** The key holds a number above 0. *)

type reference =
  | Fixed  (** The constant 1. *)
  | Key of string  (** Another key of the same object. *)
  | Row of string * string
      (** The same metric in the yardstick row of the same run: the row
          whose [field] is [value], its other identity keys equal. *)

type kind =
  | Hard of reference
      (** The run alone: the limit is [bound] × reference + [floor]. *)
  | Ratio of string * string
      (** The metric relative to a yardstick row of the same run, as in
          [Row], against the baseline's ratio: the reference is the
          baseline's value / its yardstick × this run's yardstick. Rows
          whose yardstick is not positive on either side are skipped. *)
  | Backstop  (** Against the same object of the baseline. *)

(** How the value must relate to the limit. Against a baseline,
    [At_most] allows [reference + max (bound × tolerance × reference,
    floor)], [At_least] requires [reference / (1 + bound × tolerance) -
    floor], and [Equal] requires the reference itself. *)
type cmp = At_most | Below | At_least | Equal

type t = {
  name : string;  (** How failures are reported and CHANGES.md cites it. *)
  runs : run list;
  section : string;
  where : (string * test) list;  (** The objects the gate applies to. *)
  metric : string;
  kind : kind;
  cmp : cmp;
  bound : float;
      (** A factor for [Hard], a multiple of [--tolerance] otherwise. *)
  floor : float;  (** Absolute slack, in the metric's unit. *)
}

val table : t list

type failure = { gate : string; label : string; detail : string }

val evaluate :
  ?gates:t list -> run:run -> ?baseline:Json.t -> tolerance:float -> Json.t -> failure list
(** Every gate of [gates] (default {!table}) that [run] or, with a
    baseline, [Compare] activates, over the run's document.

    A missing section or metric in the run's document fails a [Hard]
    gate. A baseline object missing from the run fails an [Equal] gate
    and is skipped by the others. A metric missing from the baseline
    raises {!Json.Malformed}. *)

val pp_failure : Format.formatter -> failure -> unit
