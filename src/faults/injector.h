#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "faults/fault_plan.h"

namespace cloudrepro::obs {
class Tracer;
}  // namespace cloudrepro::obs

namespace cloudrepro::faults {

/// Time-ordered cursor over a `FaultPlan` plus any synthetic follow-up
/// events the consumer schedules while replaying it (restores at the end of
/// a slowdown window, the delayed death behind a revocation notice).
///
/// The injector is the one place that decides *when* the next fault fires;
/// the consumer (the engine) decides *what* it does to the cluster. Events
/// due at the same instant pop in scheduling order — the heap is keyed by
/// (at_s, schedule sequence) — so replay is deterministic: the pop order is
/// a pure function of the schedule order.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Copies the plan's events into the queue. The plan may be discarded
  /// afterwards.
  explicit FaultInjector(const FaultPlan& plan);

  bool empty() const noexcept { return queue_.empty(); }
  std::size_t pending() const noexcept { return queue_.size(); }

  /// Time of the earliest pending event; +infinity when none remain.
  double next_time() const noexcept;

  /// Removes and returns the earliest pending event. Undefined when empty —
  /// guard with `next_time()`.
  FaultEvent pop();

  /// Schedules a synthetic follow-up (e.g. the restore that ends a slowdown
  /// window, encoded as a kTransientSlowdown with magnitude 1).
  void schedule(FaultEvent event);

  /// Attaches a tracer (null clears): every popped event — planned faults
  /// and synthetic follow-ups alike — is recorded as an instant at its
  /// scheduled simulated time, lane = struck node, named after its kind.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

 private:
  struct Scheduled {
    FaultEvent event;
    std::uint64_t seq = 0;  ///< Schedule order: the tie-break.
  };
  /// Orders the heap so its top is the earliest (at_s, seq).
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const noexcept {
      if (a.event.at_s != b.event.at_s) return a.event.at_s > b.event.at_s;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Scheduled, std::vector<Scheduled>, Later> queue_;
  std::uint64_t next_seq_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace cloudrepro::faults
