#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cloudrepro::serve {

/// Outcome of one campaign execution, shared verbatim by every request that
/// coalesced onto it.
struct FlightOutcome {
  bool ok = false;
  std::string summary;        ///< Canonical summary bytes (ok only).
  std::string hit;            ///< Leader's disposition: miss/partial/hit.
  std::string error_code;     ///< !ok only.
  std::string error_message;  ///< !ok only.
};

/// In-process single-flight table keyed by the cache entry key
/// (<hash>-s<seed>-v<version>): the thundering-herd collapse the ROADMAP
/// asks for. The first request for a key becomes the *leader* — it alone
/// executes the campaign — and every request arriving while the flight is
/// open registers a callback and shares the leader's outcome byte-for-byte.
///
/// This sits *above* the ResultStore's cross-process lock-file protocol:
/// the lock file serializes executors across processes, the flight table
/// collapses requests within this server, so N concurrent GETs cost one
/// campaign and zero lock-wait polling for the N-1 followers.
///
/// Callbacks run on the completing thread (the executor worker), outside
/// the table mutex; a callback registered after completion would be a bug
/// in the caller (flights are removed on completion while still holding
/// the admission order), which the join/complete contract makes impossible.
class SingleFlight {
 public:
  /// `leader` is true for the callback whose join opened the flight — told
  /// by the table (the first registered callback) rather than by a flag the
  /// caller would have to publish after join() returns, which would race
  /// with an immediate completion on another thread.
  using Callback = std::function<void(const FlightOutcome&, bool leader)>;

  /// Joins the flight for `key`. Returns true when the caller became the
  /// leader: it MUST eventually call `complete(key, ...)` exactly once
  /// (its own callback fires through `complete` like everyone else's).
  bool join(const std::string& key, Callback callback);

  /// Publishes the outcome: removes the flight and invokes every joined
  /// callback, in join order, outside the lock.
  void complete(const std::string& key, const FlightOutcome& outcome);

  /// Open flights (gauge fodder).
  std::size_t open_flights() const;

 private:
  struct Flight {
    std::vector<Callback> callbacks;  ///< Join order.
  };

  mutable std::mutex mu_;
  std::map<std::string, Flight> flights_;
};

}  // namespace cloudrepro::serve
