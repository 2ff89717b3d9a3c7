#include "simnet/tcp_stream.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "simnet/units.h"

namespace cloudrepro::simnet {

namespace {

enum class EventKind { kAck, kLossSignal };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;   ///< Push order: the tie-break.
  EventKind kind = EventKind::kAck;
  double send_time = 0.0;  ///< For RTT samples on acks.
};

/// Orders the heap so its top is the earliest (time, seq).
struct Later {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

TcpStreamResult run_tcp_stream(QosPolicy& qos, const VnicConfig& vnic,
                               const TcpConfig& tcp, const PacketPathConfig& config,
                               stats::Rng& rng) {
  if (config.duration_s <= 0.0) {
    throw std::invalid_argument{"run_tcp_stream: duration must be positive"};
  }
  if (tcp.initial_cwnd_segments < 1.0 || tcp.max_cwnd_segments < tcp.initial_cwnd_segments) {
    throw std::invalid_argument{"run_tcp_stream: invalid congestion-window bounds"};
  }

  const double segment = vnic.segment_bytes(config.write_bytes);
  const double base_loss = vnic.loss_probability(segment);
  const double queue_capacity = vnic.queue_byte_capacity;

  TcpStreamResult result;
  result.duration_s = config.duration_s;

  // Heap over the in-flight window's ack/loss timers. Equal timestamps
  // (e.g. a burst of tail drops detected together) pop in push order, so
  // the event flow is a pure function of the send sequence.
  std::priority_queue<Event, std::vector<Event>, Later> events;
  std::uint64_t next_seq = 0;

  double now = 0.0;
  double server_free_at = 0.0;   ///< Bottleneck queue: time the server drains.
  double cwnd = tcp.initial_cwnd_segments;
  double ssthresh = tcp.initial_ssthresh_segments;
  double in_flight = 0.0;        ///< Segments sent but not yet acked/lost.
  double srtt = vnic.base_rtt_s * 2.0;
  bool in_recovery = false;

  double last_qos_advance = 0.0;
  double delivered_since_advance = 0.0;

  double interval_delivered = 0.0;
  double interval_start = 0.0;

  std::size_t recorded = 0;
  const std::size_t keep_every = std::max<std::size_t>(
      1, config.max_recorded_packets == 0
             ? 1
             : static_cast<std::size_t>(
                   gbit_to_bytes(qos.allowed_rate()) * config.duration_s / segment /
                   static_cast<double>(config.max_recorded_packets)));

  const auto advance_qos_to = [&](double t) {
    const double dt = t - last_qos_advance;
    if (dt <= 0.0) return;
    const double rate = bytes_to_gbit(delivered_since_advance) / dt;
    qos.advance(dt, rate);
    last_qos_advance = t;
    delivered_since_advance = 0.0;
  };

  const auto flush_interval = [&](double t) {
    while (t - interval_start >= config.bandwidth_sample_interval_s) {
      result.bandwidth_gbps.push_back(bytes_to_gbit(interval_delivered) /
                                      config.bandwidth_sample_interval_s);
      result.cwnd_segments.push_back(cwnd);
      interval_delivered = 0.0;
      interval_start += config.bandwidth_sample_interval_s;
    }
  };

  const auto effective_window = [&] {
    double window = std::min(cwnd, tcp.max_cwnd_segments);
    if (tcp.receive_window_bytes > 0.0) {
      window = std::min(window, tcp.receive_window_bytes / segment);
    }
    return window;
  };

  const auto send_segment = [&](bool is_retransmission) {
    const double rate_bytes = gbit_to_bytes(qos.allowed_rate());
    const double service_s = segment / rate_bytes + vnic.per_segment_overhead_s;
    const double queue_wait = std::max(0.0, server_free_at - now);

    // Drop-tail at the bottleneck queue plus the vNIC's byte-pressure loss.
    const bool tail_drop = queue_wait * rate_bytes + segment > queue_capacity;
    const bool random_drop = rng.bernoulli(base_loss);
    in_flight += 1.0;

    if (tail_drop || random_drop) {
      // Loss is detected a little after the ack of the following in-order
      // data would have arrived (triple duplicate ACK).
      const double detect = now + queue_wait + 3.0 * service_s +
                            vnic.base_rtt_s + srtt;
      events.push(Event{detect, next_seq++, EventKind::kLossSignal, now});
      if (is_retransmission) ++result.retransmissions;
      return;
    }

    server_free_at = std::max(server_free_at, now) + service_s;
    const double jitter = std::exp(rng.normal(0.0, 0.2 * vnic.rtt_jitter_sigma));
    const double ack_time = server_free_at + vnic.base_rtt_s * jitter;
    events.push(Event{ack_time, next_seq++, EventKind::kAck, now});
    if (is_retransmission) {
      ++result.retransmissions;
    }
  };

  // Prime the pump.
  while (in_flight < effective_window() && now < config.duration_s) {
    send_segment(false);
  }

  while (now < config.duration_s && !events.empty()) {
    const Event ev = events.top();
    events.pop();
    if (ev.time > config.duration_s) break;
    now = ev.time;
    flush_interval(now);

    switch (ev.kind) {
      case EventKind::kAck: {
        in_flight = std::max(0.0, in_flight - 1.0);
        ++result.segments_sent;
        result.delivered_gbit += bytes_to_gbit(segment);
        delivered_since_advance += segment;
        interval_delivered += segment;

        const double rtt = now - ev.send_time;
        srtt = 0.875 * srtt + 0.125 * rtt;
        if (recorded++ % keep_every == 0) {
          result.packets.push_back(PacketSample{ev.send_time, rtt, false});
        }

        if (in_recovery) {
          in_recovery = false;  // New ack ends fast recovery.
        }
        if (cwnd < ssthresh) {
          cwnd += 1.0;  // Slow start: +1 per ack.
        } else {
          cwnd += 1.0 / cwnd;  // Congestion avoidance.
        }
        cwnd = std::min(cwnd, tcp.max_cwnd_segments);
        break;
      }
      case EventKind::kLossSignal: {
        in_flight = std::max(0.0, in_flight - 1.0);
        if (!in_recovery) {
          // Fast retransmit/recovery: multiplicative decrease once per
          // loss window.
          ssthresh = std::max(cwnd / 2.0, 2.0);
          cwnd = ssthresh;
          in_recovery = true;
        }
        if (recorded++ % keep_every == 0) {
          result.packets.push_back(PacketSample{ev.send_time, now - ev.send_time, true});
        }
        send_segment(true);  // Retransmit the lost segment.
        break;
      }
    }

    advance_qos_to(now);

    // Refill the window.
    while (in_flight < effective_window() && now < config.duration_s) {
      send_segment(false);
    }
  }

  flush_interval(config.duration_s);
  return result;
}

}  // namespace cloudrepro::simnet
