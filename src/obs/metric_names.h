// Every production metric name, in one place (DESIGN.md §13.4).
//
// Convention: jinfer_<subsystem>_<metric>, lowercase with underscores;
// counters end in _total, latency histograms in _nanos, gauges name the
// level they report. scripts/check_metric_names.py lints this file for
// duplicates, non-conforming names and constants with no registration
// site under src/, and fails CI when a "jinfer_" string literal appears
// anywhere else under src/ — a metric that is not registered here does
// not exist.

#ifndef JINFER_OBS_METRIC_NAMES_H_
#define JINFER_OBS_METRIC_NAMES_H_

namespace jinfer {
namespace obs {

// --- store: the persistent index tier (store/index_store.cc) -------------
inline constexpr char kStoreLoadsTotal[] = "jinfer_store_loads_total";
inline constexpr char kStoreLoadHitsTotal[] = "jinfer_store_load_hits_total";
inline constexpr char kStoreLoadMissesTotal[] =
    "jinfer_store_load_misses_total";
inline constexpr char kStoreWritesTotal[] = "jinfer_store_writes_total";
inline constexpr char kStoreSkippedWritesTotal[] =
    "jinfer_store_skipped_writes_total";
inline constexpr char kStoreQuarantinedTotal[] =
    "jinfer_store_quarantined_total";
inline constexpr char kStorePutRetriesTotal[] =
    "jinfer_store_put_retries_total";
inline constexpr char kStoreLoadRetriesTotal[] =
    "jinfer_store_load_retries_total";
inline constexpr char kStoreLoadNanos[] = "jinfer_store_load_nanos";
inline constexpr char kStorePutNanos[] = "jinfer_store_put_nanos";

// --- cache: the tiered IndexCache (runtime/index_cache.cc) ---------------
inline constexpr char kCacheLookupsTotal[] = "jinfer_cache_lookups_total";
inline constexpr char kCacheHitsTotal[] = "jinfer_cache_hits_total";
inline constexpr char kCacheBuildsTotal[] = "jinfer_cache_builds_total";
inline constexpr char kCacheFailuresTotal[] = "jinfer_cache_failures_total";
inline constexpr char kCacheMappedLoadsTotal[] =
    "jinfer_cache_mapped_loads_total";
inline constexpr char kCacheStoreWritesTotal[] =
    "jinfer_cache_store_writes_total";
inline constexpr char kCacheEvictionsTotal[] = "jinfer_cache_evictions_total";
inline constexpr char kCacheRejectedAdmissionsTotal[] =
    "jinfer_cache_rejected_admissions_total";
inline constexpr char kCacheDegradedBuildsTotal[] =
    "jinfer_cache_degraded_builds_total";
inline constexpr char kCacheFailFastTotal[] = "jinfer_cache_fail_fast_total";
inline constexpr char kCacheBackoffArmsTotal[] =
    "jinfer_cache_backoff_arms_total";
inline constexpr char kCacheProbeNanos[] = "jinfer_cache_probe_nanos";
inline constexpr char kCacheBuildNanos[] = "jinfer_cache_build_nanos";

// --- manager: SessionManager batch runs (runtime/session_manager.cc) -----
inline constexpr char kManagerCompletedTotal[] =
    "jinfer_manager_completed_total";
inline constexpr char kManagerFailedTotal[] = "jinfer_manager_failed_total";
inline constexpr char kManagerFactoryRetriesTotal[] =
    "jinfer_manager_factory_retries_total";
inline constexpr char kManagerSliceFaultsTotal[] =
    "jinfer_manager_slice_faults_total";

// --- session: the step API (runtime/session.cc) --------------------------
inline constexpr char kSessionQuestionNanos[] =
    "jinfer_session_question_nanos";
inline constexpr char kSessionAnswerNanos[] = "jinfer_session_answer_nanos";

// --- minimax: the exact-search engine (core/strategies) ------------------
inline constexpr char kMinimaxSearchesTotal[] =
    "jinfer_minimax_searches_total";
inline constexpr char kMinimaxNodesTotal[] = "jinfer_minimax_nodes_total";
inline constexpr char kMinimaxTtProbesTotal[] =
    "jinfer_minimax_tt_probes_total";
inline constexpr char kMinimaxTtHitsTotal[] = "jinfer_minimax_tt_hits_total";
inline constexpr char kMinimaxTtStoresTotal[] =
    "jinfer_minimax_tt_stores_total";
inline constexpr char kMinimaxSearchNanos[] = "jinfer_minimax_search_nanos";

// --- server: the network front end (server/server.cc) --------------------
inline constexpr char kServerConnectionsAcceptedTotal[] =
    "jinfer_server_connections_accepted_total";
inline constexpr char kServerFramesReadTotal[] =
    "jinfer_server_frames_read_total";
inline constexpr char kServerFramesWrittenTotal[] =
    "jinfer_server_frames_written_total";
inline constexpr char kServerProtocolErrorsTotal[] =
    "jinfer_server_protocol_errors_total";
inline constexpr char kServerDeadlineClosesTotal[] =
    "jinfer_server_deadline_closes_total";
inline constexpr char kServerWorkShedTotal[] =
    "jinfer_server_work_shed_total";
inline constexpr char kServerSessionsOpenedTotal[] =
    "jinfer_server_sessions_opened_total";
inline constexpr char kServerSessionsClosedTotal[] =
    "jinfer_server_sessions_closed_total";
inline constexpr char kServerSessionsAbortedTotal[] =
    "jinfer_server_sessions_aborted_total";
inline constexpr char kServerConnectionsOpen[] =
    "jinfer_server_connections_open";
inline constexpr char kServerSessionsOpen[] = "jinfer_server_sessions_open";
inline constexpr char kServerPendingWork[] = "jinfer_server_pending_work";
inline constexpr char kServerFrameDecodeNanos[] =
    "jinfer_server_frame_decode_nanos";
inline constexpr char kServerFrameQueueNanos[] =
    "jinfer_server_frame_queue_nanos";
inline constexpr char kServerFrameExecuteNanos[] =
    "jinfer_server_frame_execute_nanos";

// --- kernels: the dispatched SIMD backend (util/simd, DESIGN.md §12.4) ---
// Info-style gauge: the value is the active KernelBackend enum
// (0 = scalar, 1 = avx2, 2 = avx512), refreshed at each exposition render
// so a forced or test-set backend shows up on the next scrape.
inline constexpr char kKernelBackendInfo[] = "jinfer_kernel_backend_info";

// --- trace: the flight recorder's own health (obs/trace.cc) --------------
inline constexpr char kTraceSpansDroppedTotal[] =
    "jinfer_trace_spans_dropped_total";

}  // namespace obs
}  // namespace jinfer

#endif  // JINFER_OBS_METRIC_NAMES_H_
