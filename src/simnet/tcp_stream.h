#pragma once

#include <cstddef>
#include <vector>

#include "simnet/packet_path.h"
#include "simnet/qos.h"
#include "stats/rng.h"

namespace cloudrepro::simnet {

/// Full TCP congestion-control stream model.
///
/// The figure-generating path (`run_packet_stream`) models TCP's effect on
/// the queue statistically (a sawtooth occupancy). This module implements
/// the real control loop — slow start, congestion avoidance (AIMD), fast
/// retransmit/recovery — over the same virtual-NIC bottleneck, so the
/// simplified model can be validated against it
/// (`bench_ablation_tcp_model`). It is also useful on its own for studying
/// how congestion control interacts with token-bucket rate changes
/// (the paper's Figure 7 regime shift).
struct TcpConfig {
  double initial_cwnd_segments = 10.0;   ///< RFC 6928 initial window.
  double initial_ssthresh_segments = 256.0;
  double max_cwnd_segments = 4096.0;
  double min_rto_s = 0.2;                ///< Conservative lower bound.
  /// Receive-window cap in bytes (flow control); 0 = unlimited.
  double receive_window_bytes = 0.0;
};

struct TcpStreamResult {
  std::size_t segments_sent = 0;       ///< Unique segments delivered.
  std::size_t retransmissions = 0;     ///< Loss-triggered resends.
  double duration_s = 0.0;
  double delivered_gbit = 0.0;

  /// Mean goodput over the stream (Gbps).
  double mean_goodput_gbps() const noexcept {
    return duration_s > 0.0 ? delivered_gbit / duration_s : 0.0;
  }

  std::vector<PacketSample> packets;   ///< RTT samples (possibly thinned).
  std::vector<double> bandwidth_gbps;  ///< Goodput per sample interval.
  std::vector<double> cwnd_segments;   ///< Congestion window per interval.

  double retransmission_rate() const noexcept {
    const auto total = segments_sent + retransmissions;
    return total == 0 ? 0.0
                      : static_cast<double>(retransmissions) /
                            static_cast<double>(total);
  }
};

/// Runs a greedy TCP stream against the bottleneck defined by the QoS
/// policy and virtual NIC. The policy is advanced with the realized
/// throughput, so token buckets deplete and the stream adapts — slow start
/// at the high rate, a loss burst and cwnd collapse at the throttle
/// transition, then a new equilibrium at the capped rate.
TcpStreamResult run_tcp_stream(QosPolicy& qos, const VnicConfig& vnic,
                               const TcpConfig& tcp, const PacketPathConfig& config,
                               stats::Rng& rng);

}  // namespace cloudrepro::simnet
