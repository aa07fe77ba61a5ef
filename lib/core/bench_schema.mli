(** The bench JSON schema tag, in one place.

    Every [bench] JSON emitter stamps its output with this string, the
    committed [BENCH_results.json] baseline must carry it, and the test
    suite asserts that it does — so a schema bump is a one-line change
    here instead of a copy-paste hunt.

    History (see EXPERIMENTS.md for what each revision added):
    [/1] per-plan metrics, [/2] batched I/O counters, [/3] workload
    mode, [/4] structural-index counters, [/5] fused-chain counters +
    micro tier, [/6] result-cache / shared-demand counters + the skewed
    repeat-query workload section, [/7] the writer counters
    ([writer_commits] / [latch_waits] / [snapshot_retries] /
    [cluster_stales]) in the workload summary and per-job rows plus the
    [--workload --writers K] mode, [/8] the [scan_resist_hits] counter
    (2Q protected hits) in every row plus the
    [--workload --shards K --tenants M] mode and its [workload-shards]
    output shape, [/9] the [minor_words] counter in every row, rows timed
    as the median of five runs, and the summary keys the gate table reads
    ([violations], [completed] and [front_door_cache_off] in [skew];
    [violations], [pinned], [expected_jobs] and [writer_free_reader_p99]
    in [workload]; [violations] and [expected_jobs] in [shards_summary]).
    The per-plan row keys are derived from {!Counters.table}. *)

val version : string
(** ["xnav-bench/9"]. *)
