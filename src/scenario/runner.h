#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "scenario/result_store.h"
#include "scenario/spec.h"

namespace cloudrepro::bigdata {
struct WorkloadProfile;
}  // namespace cloudrepro::bigdata

namespace cloudrepro::scenario {

/// Resolves a workload reference against the built-in suites
/// (hibench / hibench-ext / tpcds / tpch); throws std::out_of_range with
/// the suite's known names when absent. The returned reference has static
/// storage duration.
const bigdata::WorkloadProfile& resolve_workload(const WorkloadRef& ref);

/// Materializes the scenario grid as campaign cells, workloads outer and
/// treatments inner — cell index = w * treatment_count + t. Every cell's
/// `run_once` builds a fresh cluster and engine from its repetition RNG
/// stream, so cells are thread-safe and the campaign is bit-identical at
/// any thread count.
std::vector<core::CampaignCell> build_cells(const ScenarioSpec& spec);

/// The campaign options a scenario pins (repetitions, order, confidence).
/// Runtime knobs (threads, journal, max_measurements) stay at their
/// defaults for the caller to fill in.
core::CampaignOptions campaign_options(const ScenarioSpec& spec);

/// Canonical summary bytes for a finished (or interrupted) campaign:
/// per-cell robust statistics, optional per-cell CONFIRM analysis, and the
/// provenance triple (scenario hash, seed, result schema version). A pure
/// function of the campaign *values* — never of thread count, cache state,
/// or wall time — which is what makes "second run emits byte-identical
/// output" checkable with `cmp`.
std::string summary_json(const ScenarioSpec& spec, std::uint64_t seed,
                         const core::CampaignResult& result);

struct RunOptions {
  /// Campaign worker threads: 1 = serial reference, 0 = all cores.
  int threads = 1;
  /// External worker pool shared across scenarios — `run_suite`'s thread
  /// budget. When set it overrides `threads` and the campaign submits its
  /// (cell, repetition) tasks there; the pool's one queue keeps every worker
  /// busy even when one scenario's cells finish early. Never part of any
  /// cache key: scheduling does not change what a scenario computes.
  runtime::ThreadPool* pool = nullptr;
  /// Master seed; defaults to the spec's.
  std::optional<std::uint64_t> seed;
  /// Result cache; nullptr disables journaling and summary reuse.
  ResultStore* store = nullptr;
  /// Force a journal replay even when a complete summary exists — used when
  /// the caller needs the raw per-repetition values (CSV export), which the
  /// summary alone cannot provide. Still executes zero new measurements on
  /// a full hit.
  bool need_values = false;
  /// Stop after this many new measurements (0 = unlimited); the journal
  /// keeps the prefix for a later resume.
  int max_measurements = 0;
  /// Cooperative cancellation (SIGINT/SIGTERM): threaded through to
  /// `core::CampaignOptions::cancel`. In-flight measurements finish and are
  /// journaled; the summary is not published; a later run resumes.
  const std::atomic<bool>* cancel = nullptr;
  /// Filesystem the campaign journal goes through; null = real. Pass the
  /// same `FaultVfs` the store was built with when torturing the whole
  /// stack.
  io::Vfs* vfs = nullptr;
  /// Campaign instrumentation sink (counters/histograms); independent of the
  /// store's registry, though callers usually pass the same one.
  obs::MetricsRegistry* metrics = nullptr;
  /// Single-flight wait policy when another live process holds the entry's
  /// lock: poll up to `lock_wait_attempts` times, `lock_wait_ms` apart, for
  /// either the holder's published summary (read-through) or the lock.
  /// Exhausting the budget throws. 600 x 100ms = one minute.
  int lock_wait_attempts = 600;
  int lock_wait_ms = 100;
};

struct ScenarioRunResult {
  /// Empty (no cells) when the run was served from the cached summary.
  core::CampaignResult campaign;
  std::string summary;  ///< Canonical summary bytes.
  ResultStore::HitState hit_state = ResultStore::HitState::kMiss;
  bool from_cached_summary = false;
  std::size_t executed_measurements = 0;  ///< Fresh runs this invocation.
  std::size_t resumed_measurements = 0;   ///< Reused from the cache journal.
  std::size_t total_measurements = 0;
  bool complete = true;
};

/// Runs one scenario end to end: cache lookup, campaign execution or resume
/// through the store's journal, summary generation, and summary publication
/// on completion. With a store, a complete entry is served without
/// executing anything; a partial entry re-runs only the remainder.
///
/// Concurrency: execution is single-flight per (spec hash, seed). The
/// store's lock file admits one executor; a second `run_scenario` against
/// the same entry waits (bounded, see `RunOptions`) and, when the holder
/// publishes the summary, serves it without executing anything — the
/// exactly-once guarantee two concurrent `cloudrepro` processes rely on.
///
/// Integrity: a journal whose header fails the verbatim check
/// (`core::JournalMismatch` — older build, different grid) evicts the entry
/// and redoes the campaign cold; a corrupt journal *tail* is truncated and
/// only its measurements re-run; a corrupt summary is evicted and the
/// journal resumed. Real I/O errors (ENOSPC, EIO) always propagate.
ScenarioRunResult run_scenario(const ScenarioSpec& spec, const RunOptions& options = {});

struct SuiteRunResult {
  /// One entry per spec, in member (not completion) order.
  std::vector<ScenarioRunResult> members;
  /// False when any executed member was interrupted (budget, cancellation).
  bool complete = true;
};

/// Called once per member, in member order, as soon as that member and all
/// its predecessors have finished — the ordered-emission seam that keeps a
/// suite's streamed output byte-identical at any thread count.
using SuiteMemberCallback =
    std::function<void(std::size_t, const ScenarioRunResult&)>;

/// Runs every scenario of a suite against one shared thread budget.
///
/// With an effective thread count of 1 (and no external pool) the members
/// run serially in order — the byte-for-byte reference. Otherwise one pool
/// of `threads` workers is shared by all members: each member gets a
/// coordinator thread (its single-flight admission, journal writing, and
/// summary generation), and every member's (cell, repetition) tasks land in
/// the same queue, so a scenario with long cells no longer serializes the
/// suite behind it — a worker that runs out of one member's tasks takes
/// the next member's.
/// Because each campaign's values land in pre-assigned slots and summaries
/// are pure functions of those values, `members` — and anything emitted via
/// `on_member` — is byte-identical to the serial reference.
///
/// Exceptions: the first failing member (by member order) is rethrown after
/// every coordinator has joined; `on_member` fires only for the members
/// before it, exactly as if the serial loop had thrown there.
SuiteRunResult run_suite(const std::vector<ScenarioSpec>& specs,
                         const RunOptions& options = {},
                         const SuiteMemberCallback& on_member = {});

}  // namespace cloudrepro::scenario
