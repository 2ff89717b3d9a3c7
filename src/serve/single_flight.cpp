#include "serve/single_flight.h"

#include <utility>

namespace cloudrepro::serve {

bool SingleFlight::join(const std::string& key, Callback callback) {
  std::lock_guard<std::mutex> lock{mu_};
  auto [it, inserted] = flights_.try_emplace(key);
  it->second.callbacks.push_back(std::move(callback));
  return inserted;
}

void SingleFlight::complete(const std::string& key, const FlightOutcome& outcome) {
  std::vector<Callback> callbacks;
  {
    std::lock_guard<std::mutex> lock{mu_};
    auto it = flights_.find(key);
    if (it == flights_.end()) return;  // complete() without a join is a no-op.
    callbacks = std::move(it->second.callbacks);
    flights_.erase(it);
  }
  // Outside the lock: a callback may re-enter join() for a different key
  // without deadlocking.
  for (std::size_t i = 0; i < callbacks.size(); ++i) {
    callbacks[i](outcome, i == 0);
  }
}

std::size_t SingleFlight::open_flights() const {
  std::lock_guard<std::mutex> lock{mu_};
  return flights_.size();
}

}  // namespace cloudrepro::serve
