#include "simnet/token_bucket.h"

#include <algorithm>
#include <stdexcept>

#include "simnet/units.h"

namespace cloudrepro::simnet {

TokenBucket::TokenBucket(const TokenBucketConfig& config)
    : config_{config},
      budget_{config.initial_gbit},
      low_mode_{config.initial_gbit <= 0.0} {
  if (config.capacity_gbit < 0.0 || config.initial_gbit < 0.0) {
    throw std::invalid_argument{"TokenBucket: capacity and initial budget must be non-negative"};
  }
  if (config.initial_gbit > config.capacity_gbit) {
    throw std::invalid_argument{"TokenBucket: initial budget exceeds capacity"};
  }
  if (config.high_rate_gbps <= 0.0 || config.low_rate_gbps <= 0.0) {
    throw std::invalid_argument{"TokenBucket: rates must be positive"};
  }
  if (config.low_rate_gbps > config.high_rate_gbps) {
    throw std::invalid_argument{"TokenBucket: low rate exceeds high rate"};
  }
  if (config.replenish_gbps < 0.0) {
    throw std::invalid_argument{"TokenBucket: replenish rate must be non-negative"};
  }
  if (config.recover_threshold_gbit < 0.0 ||
      config.recover_threshold_gbit > config.capacity_gbit) {
    throw std::invalid_argument{"TokenBucket: recovery threshold must lie within [0, capacity]"};
  }
}

double TokenBucket::allowed_rate() const noexcept {
  return low_mode_ ? config_.low_rate_gbps : config_.high_rate_gbps;
}

void TokenBucket::advance(double dt, double rate_gbps) noexcept {
  if (dt <= 0.0) return;
  const double rate = std::clamp(rate_gbps, 0.0, allowed_rate());
  const double net_drain = rate - config_.replenish_gbps;
  budget_ = std::clamp(budget_ - net_drain * dt, 0.0, config_.capacity_gbit);
  if (!low_mode_ && budget_ <= 0.0) {
    low_mode_ = true;
    notify_transition();
  } else if (low_mode_ && budget_ >= config_.recover_threshold_gbit) {
    low_mode_ = false;
    notify_transition();
  }
}

double TokenBucket::time_until_change(double rate_gbps) const noexcept {
  const double rate = std::clamp(rate_gbps, 0.0, allowed_rate());
  const double net_gain = config_.replenish_gbps - rate;
  if (!low_mode_ && net_gain < 0.0) {
    return budget_ / -net_gain;  // Time until depletion -> drop to low rate.
  }
  if (low_mode_ && net_gain > 0.0) {
    // Time until the budget refills past the recovery threshold.
    return (config_.recover_threshold_gbit - budget_) / net_gain;
  }
  return kInfiniteTime;
}

double TokenBucket::time_to_full_refill() const noexcept {
  if (config_.replenish_gbps <= 0.0) return kInfiniteTime;
  return (config_.capacity_gbit - budget_) / config_.replenish_gbps;
}

void TokenBucket::reset() noexcept {
  budget_ = config_.initial_gbit;
  low_mode_ = budget_ <= 0.0;
}

void TokenBucket::set_budget(double gbit) noexcept {
  const bool was_low = low_mode_;
  budget_ = std::clamp(gbit, 0.0, config_.capacity_gbit);
  low_mode_ = budget_ < config_.recover_threshold_gbit ? (budget_ <= 0.0 || low_mode_)
                                                       : false;
  if (low_mode_ != was_low) notify_transition();
}

}  // namespace cloudrepro::simnet
