(** Runtime invariant checks for completed plan executions.

    A plan run that terminates normally must leave the storage layer
    exactly as it found it and its counters must balance. These checks
    are the second half of the correctness story (the differential
    harness in [lib/check] being the first): a plan can produce the
    right node set while leaking pins or dangling I/O requests, and such
    leaks only bite runs later, under a different configuration.

    Enforced after every run when {!Context.config.validate} is set
    (see {!Exec.run}):

    - [Buffer_manager.pinned_count = 0] — no page leaks;
    - [Io_scheduler.pending_count = 0] and its pending/order structures
      agree — no dangling or dead requests;
    - the I/O operator's queue has drained (the handle's [visit.pending]
      = 0: no continuation, and so no refused prefetch, stranded) and
      the index counters balance (clusters pinned by XIndex are a
      subset of all visits; no residual without a pin);
    - counters are non-negative and stay 0 while the knob guarding
      them is off (both derived from {!Counters.table});
    - counters conserve:
      [specs_resolved <= specs_stored], [s_peak <= specs_stored],
      [q_served + q_dropped = q_enqueued], and the final result count
      equals XAssembly's [results_emitted] (reordered plans emit
      duplicate-free). *)

val post_run : ?io:Io_operator.handle -> ?results:int -> Context.t -> string list
(** All violations found, empty if the run state is consistent. [io]
    enables the drain check; [results]
    (the plan's final node count) enables the result-conservation check
    — pass it only for reordered plans, whose emissions are
    duplicate-free. *)

val enforce : ?io:Io_operator.handle -> ?results:int -> Context.t -> unit
(** @raise Failure listing every violation, if any. *)
