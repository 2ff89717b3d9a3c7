#include "faults/injector.h"

#include <cstdint>
#include <limits>

#include "obs/trace.h"

namespace cloudrepro::faults {

FaultInjector::FaultInjector(const FaultPlan& plan) {
  for (const auto& event : plan.events()) schedule(event);
}

double FaultInjector::next_time() const noexcept {
  return queue_.empty() ? std::numeric_limits<double>::infinity()
                        : queue_.top().event.at_s;
}

FaultEvent FaultInjector::pop() {
  const FaultEvent event = queue_.top().event;
  queue_.pop();
  if (tracer_) {
    tracer_->instant(event.at_s, "faults", to_string(event.kind),
                     {"node", static_cast<double>(event.node)},
                     {"magnitude", event.magnitude},
                     static_cast<std::uint32_t>(event.node), 1);
  }
  return event;
}

void FaultInjector::schedule(FaultEvent event) {
  queue_.push({event, next_seq_++});
}

}  // namespace cloudrepro::faults
