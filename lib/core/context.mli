(** Shared execution state of one plan run: configuration, the
    run counters (including the normal/fallback switch), and the trace
    hook.

    One [Context.t] is created per plan execution and threaded through
    every operator. The [fell_back] counter implements the paper's
    fallback protocol (Sec. 5.4.6): when XAssembly's speculative store
    [S] outgrows [memory_budget], it flips the switch once, and every
    operator checks it on its next call — XStep stops honouring cluster
    borders, XScan restarts as the identity, XAssembly degenerates to
    duplicate elimination. *)

type config = {
  k : int;
      (** Desired minimum size of XSchedule's queue [Q] — "enough
          scheduling alternatives for the asynchronous I/O subsystem"
          (paper default: 100). *)
  memory_budget : int;
      (** Maximum number of instances held in [S] before the run falls
          back to the simple method. *)
  validate : bool;
      (** Run the {!Invariant} post-run checks after every plan
          execution: no pinned frames, empty scheduler queues, consistent
          I/O scheduler structures, counter conservation. Off by default
          (it adds bookkeeping passes); the differential harness and the
          test suite switch it on. *)
  coalesce_window : int;
      (** Largest contiguous run of pending pages serviced as one
          vectored read (see {!Xnav_storage.Io_scheduler.complete_batch}).
          [0] disables batching — every request is serviced one page at
          a time, the historical behaviour. *)
  scan_threshold : float;
      (** Visited-region density (clusters visited ÷ span of the visited
          page range) above which XSchedule opens a bounded sequential
          scan window just past its visited frontier instead of pure
          demand scheduling. [<= 0.0] disables the hybrid. *)
  fused : bool;
      (** Evaluate reordered plans' step chains with the fused automaton
          ({!Fused}) instead of the per-step XStep iterator chain. Off
          reproduces the historical per-step execution (and I/O trace)
          exactly. This is the only fused switch: plans do not carry one. *)
  result_cache : bool;
      (** Consult the process-wide {!Result_cache} before planning a
          root-context run, and install the answer after a miss. In the
          workload engine the same knob additionally enables cross-client
          shared-scan dedup. Off by default: library callers get the
          historical from-scratch execution (and I/O trace) byte for
          byte; the [xnav] front end and the bench harness enable it. *)
  scan_resistant : bool;
      (** Run the store's buffer pool under the 2Q scan-resistant
          eviction policy
          ({!Xnav_storage.Buffer_manager.set_scan_resistant}): freshly
          read pages sit in a probationary queue and only a re-reference
          promotes them to the protected main queue, so a co-tenant's
          sequential scan cannot flush a hot working set. Off by
          default: victim choices reproduce the historical exact LRU
          byte for byte. Applied to the pool by {!Exec.run} /
          {!Exec.prepare} (and through them the workload and shard
          engines). *)
}

val default_config : config
(** [k = 100], a 1M-instance budget; coalescing window 16, scan
    threshold 0.5, fused chains on, result cache off,
    scan-resistant eviction off. *)

val set_fused : bool -> config -> config
(** [set_fused false config] disables the fused automaton — reordered
    plans fall back to the historical XStep iterator chain. *)

val set_result_cache : bool -> config -> config
(** [set_result_cache true config] enables the repeat-traffic front
    door: {!Result_cache} consultation in {!Exec.run} (and, through it,
    {!Query_exec}) plus shared-scan dedup in the workload engine. *)

val set_scan_resistant : bool -> config -> config
(** [set_scan_resistant true config] switches the buffer pool to the 2Q
    scan-resistant eviction policy for runs under this config. *)

(** {1 The knob table}

    Every layer added on top of the paper's operators sits behind a
    knob whose off setting reproduces those operators. {!knobs}
    declares each knob once; the invariant sweep's knob-off checks, its
    violation messages and the knob-flip tiers of
    [Xnav_check.Differential.tiers] are all derived from it. *)

(** What flipping a knob from off to on must keep: always the answer
    (the same node ids), plus these. *)
type promise = {
  same_rows : string list;
      (** {!Counters.table} rows whose values must be equal in the two
          runs. *)
  same_trace : bool;  (** Whether the page-by-page disk trace must be equal. *)
}

type knob = {
  name : string;  (** Prefixes the knob's invariant violations. *)
  guard : Counters.knob;
      (** The counters that must stay 0 while the knob is off: every
          {!Counters.table} row whose [zero_unless] names it. *)
  enabled : config -> bool;  (** Whether the config has the knob on. *)
  set : bool -> config -> config;
      (** [set false] puts the off value, the paper's regime; [set true]
          puts the on value, the default. *)
  off_text : string;  (** Ends a knob-off violation message. *)
  tier : string option;  (** The differential tier that flips it, if any. *)
  promise : promise;
  witness : string;
      (** The paper artefact or live ablation that needs both settings —
          why the knob exists at all. *)
}

val knobs : knob list
(** One row per {!Counters.knob} variant. *)

include module type of struct include Counters.Record end
(** The run's counters; see {!Counters.table} for each field. *)

type t = {
  store : Xnav_store.Store.t;
  config : config;
  counters : counters;
  mutable trace : (string -> unit) option;
      (** Optional operator-event sink (cluster visits, crossings,
          results); used to render the paper's Example 6/7 traces. *)
}

val create : ?config:config -> Xnav_store.Store.t -> t

val enter_fallback : t -> unit
(** Switch to fallback mode (idempotent): sets [counters.fell_back]. *)

val fallback : t -> bool
(** [counters.fell_back]. *)

val tracing : t -> bool
(** Whether a trace sink is installed. Hot paths test this before
    calling {!emit} so that building the thunk itself (a closure
    allocation per event) is skipped when tracing is off. *)

val emit : t -> (unit -> string) -> unit
(** Send an event to the trace sink, if any (the thunk is only forced
    when tracing is on). *)
