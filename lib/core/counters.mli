(** Run counters: one record, one table.

    Every plan run (and every workload job) accumulates its costs in one
    {!counters} record. Operators bump its mutable fields directly on the
    hot path; {!Exec.run} fills in the disk and buffer deltas and the
    times at the end and returns the record as {!Exec.metrics}.

    {!table} describes every field once: its name, owning layer, doc,
    how two runs combine, the knob that must keep it zero when off, and
    whether it is a bench-row key. Zeroing, summing, printing, the bench
    JSON row and the invariant sweep's non-negative and knob-off-zero
    checks are all derived from it, so adding a counter means one field
    here plus one row in the table. *)

(** The record alone, so {!Context} and {!Exec} can re-export its labels
    with [include module type of struct include Counters.Record end].
    Each field's meaning is its row's [doc] in {!table}. *)
module Record : sig
  type counters = {
    mutable io_time : float;
    mutable cpu_time : float;
    mutable total_time : float;
    mutable page_reads : int;
    mutable sequential_reads : int;
    mutable random_reads : int;
    mutable seek_distance : int;
    mutable buffer_lookups : int;
    mutable buffer_hits : int;
    mutable buffer_misses : int;
    mutable async_reads : int;
    mutable batched_reads : int;
    mutable batch_pages : int;
    mutable coalesce_runs : int;
    mutable scan_windows : int;
    mutable scan_window_pages : int;
    mutable instances : int;
    mutable crossings : int;
    mutable specs_created : int;
    mutable specs_stored : int;
    mutable specs_resolved : int;
    mutable s_peak : int;
    mutable q_peak : int;
    mutable q_enqueued : int;
    mutable q_served : int;
    mutable q_dropped : int;
    mutable clusters_visited : int;
    mutable prefetch_refusals : int;
    mutable swizzle_hits : int;
    mutable swizzle_misses : int;
    mutable index_entries : int;
    mutable index_clusters : int;
    mutable index_residuals : int;
    mutable fused_transitions : int;
    mutable fused_states : int;
    mutable cache_hits : int;
    mutable cache_misses : int;
    mutable cache_evictions : int;
    mutable shared_demand : int;
    mutable scan_resist_hits : int;
    mutable fell_back : bool;
    mutable minor_words : int;
    mutable results_emitted : int;
    mutable dedup_hits : int;
    mutable served_ticks : int;
    mutable starved_ticks : int;
    mutable writer_commits : int;
    mutable latch_waits : int;
    mutable snapshot_retries : int;
    mutable cluster_stales : int;
  }
end

include module type of struct include Record end

val create : unit -> counters
(** A fresh record: every counter 0, every time 0.0, [fell_back] false. *)

(** {1 The table} *)

type layer =
  | Run  (** End to end: times, allocation and the fallback switch. *)
  | Disk  (** The disk model. *)
  | Buffer  (** The buffer manager. *)
  | Store  (** Record decode through swizzled views. *)
  | Io_operator  (** XSchedule, XScan and XIndex. *)
  | Chain  (** The step chain: XStep iterators or the fused automaton. *)
  | Assembly  (** XAssembly and duplicate elimination. *)
  | Cache  (** The result-cache front door. *)
  | Workload  (** The closed-loop workload engine; 0 for stand-alone runs. *)

type knob =
  | Swizzling  (** {!Xnav_store.Store.swizzling}. *)
  | Scan_window  (** [config.scan_threshold > 0]. *)
  | Fused_chain  (** [config.fused]. *)
  | Scan_resistant  (** [config.scan_resistant]. *)
  | Result_cache  (** [config.result_cache]. *)

(** How a counter is read and written, and how two runs combine:
    [Count] and [Seconds] sum, [Peak] takes the maximum, [Flag] ors.
    [Ratio] is derived from other fields; it is never stored or summed
    and only feeds the bench row and the printer. *)
type field =
  | Count of (counters -> int) * (counters -> int -> unit)
  | Peak of (counters -> int) * (counters -> int -> unit)
  | Seconds of (counters -> float) * (counters -> float -> unit)
  | Flag of (counters -> bool) * (counters -> bool -> unit)
  | Ratio of (counters -> float)

type row = {
  name : string;  (** Label in the bench JSON and the printer. *)
  layer : layer;
  doc : string;
  field : field;
  zero_unless : (knob * (int -> string, unit, string) format) option;
      (** The knob that must keep this counter 0 while off, and how the
          violation message shows its value. *)
  bench : bool;  (** Whether the counter is a key of every bench row. *)
}

val table : row list
(** One row per counter, in bench-row order. *)

(** {1 Derived from the table} *)

val add : counters -> counters -> counters
(** A fresh record combining two runs row by row. *)

type value = Int of int | Float of float | Bool of bool

val bench_fields : counters -> (string * value) list
(** The bench-row keys, in table order, with their values. *)

val pp : Format.formatter -> counters -> unit
(** One line per layer, every row as [name value]. *)

val negative : counters -> string list
(** A violation message for every integer counter below 0. *)

val knob_off : on:(knob -> bool) -> counters -> string list
(** A violation message for every knob that is off while a counter it
    guards is not 0; [on] tells which knobs are on. *)
