// Figure 6: Amazon EC2 bandwidth by access pattern (c5.xlarge pair, one
// week each), as an empirical CDF plus the coefficient-of-variation bars.
// Paper: the opposite of GCE — heavier streams achieve LESS performance:
// approximately 3x and 7x slowdowns between 10-30 / 5-30 and full-speed;
// achieved bandwidth varies between ~1 and ~10 Gbps.

#include <iostream>

#include "bench_common.h"
#include "cloud/instances.h"
#include "core/report.h"
#include "measure/iperf.h"
#include "measure/patterns.h"
#include "stats/ecdf.h"

using namespace cloudrepro;

int main() {
  bench::header("Amazon EC2 bandwidth by access pattern (c5.xlarge pair)",
                "Figure 6");

  stats::Rng rng{bench::kBenchSeed};
  std::vector<measure::Trace> traces;
  for (const auto& pattern : measure::canonical_patterns()) {
    measure::BandwidthProbeOptions probe;  // One week.
    traces.push_back(
        measure::run_bandwidth_probe(cloud::ec2_c5_xlarge(), pattern, probe, rng));
  }

  bench::section("Empirical CDF of achieved bandwidth [Gbps]");
  core::TablePrinter cdf{{"Bandwidth <=", "full-speed", "10-30", "5-30"}};
  std::vector<stats::Ecdf> ecdfs;
  for (const auto& tr : traces) ecdfs.emplace_back(tr.bandwidths());
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 10.5}) {
    cdf.add_row({core::fmt(x, 1), core::fmt(ecdfs[0](x)), core::fmt(ecdfs[1](x)),
                 core::fmt(ecdfs[2](x))});
  }
  cdf.print(std::cout);
  std::cout << '\n';

  bench::section("Medians and coefficient of variation (paper: ~3x / ~7x slowdowns)");
  core::TablePrinter t{{"Pattern", "Median [Gbps]", "vs full-speed", "CoV [%]"}};
  const double full_median = traces[0].bandwidth_summary().median;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto s = traces[i].bandwidth_summary();
    t.add_row({traces[i].pattern, core::fmt(s.median),
               core::fmt(s.median / full_median, 1) + "x",
               core::fmt(100.0 * s.coefficient_of_variation, 1)});
  }
  t.print(std::cout);

  std::cout << "\nFull-speed spends the week throttled at ~1 Gbps (empty token\n"
               "bucket); the intermittent patterns spend their rest periods\n"
               "refilling and so transmit mostly at the 10 Gbps rate.\n";
  return 0;
}
