#include "corona/report.hh"

#include <algorithm>
#include <ostream>

#include "stats/report.hh"

namespace corona::core {

double
RunReport::mcLoadSkew() const
{
    if (clusters.empty())
        return 0.0;
    std::uint64_t total = 0, peak = 0;
    for (const auto &c : clusters) {
        total += c.mc_accesses;
        peak = std::max(peak, c.mc_accesses);
    }
    if (total == 0)
        return 0.0;
    const double mean = static_cast<double>(total) /
                        static_cast<double>(clusters.size());
    return static_cast<double>(peak) / mean;
}

void
RunReport::print(std::ostream &os, std::size_t top_clusters) const
{
    os << "Run: " << metrics.workload << " on " << metrics.config << "\n"
       << "  requests: " << metrics.requests_issued << " (+"
       << metrics.requests_coalesced << " coalesced)\n"
       << "  bandwidth: "
       << stats::formatBandwidth(metrics.achieved_bytes_per_second)
       << " of "
       << stats::formatBandwidth(metrics.offered_bytes_per_second)
       << " offered\n"
       << "  latency: " << stats::formatDouble(metrics.avg_latency_ns, 1)
       << " ns mean, " << stats::formatDouble(metrics.p95_latency_ns, 1)
       << " ns p95\n"
       << "  network power: "
       << stats::formatDouble(metrics.network_power_w, 1) << " W";
    if (metrics.token_wait_ns > 0.0) {
        os << "; mean token wait "
           << stats::formatDouble(metrics.token_wait_ns, 2) << " ns";
    }
    os << "\n  MC load skew (peak/mean): "
       << stats::formatDouble(mcLoadSkew(), 2) << "\n";

    // Busiest memory controllers.
    std::vector<ClusterReport> sorted = clusters;
    std::sort(sorted.begin(), sorted.end(),
              [](const ClusterReport &a, const ClusterReport &b) {
                  return a.mc_accesses > b.mc_accesses;
              });
    stats::TableWriter table("Busiest memory controllers");
    table.setHeader({"cluster", "accesses", "service (ns)", "peak queue",
                     "MSHR stalls"});
    for (std::size_t i = 0;
         i < std::min(top_clusters, sorted.size()); ++i) {
        const auto &c = sorted[i];
        table.addRow({std::to_string(c.cluster),
                      std::to_string(c.mc_accesses),
                      stats::formatDouble(c.mc_mean_service_ns, 1),
                      std::to_string(c.mc_peak_queue),
                      std::to_string(c.mshr_full_stalls)});
    }
    table.print(os);
}

RunReport
collectReport(const RunMetrics &metrics, CoronaSystem &system)
{
    RunReport report;
    report.metrics = metrics;
    const std::size_t clusters = system.config().clusters;
    report.clusters.reserve(clusters);
    for (topology::ClusterId c = 0; c < clusters; ++c) {
        const auto &mc = system.mc(c);
        const auto &hub = system.hub(c);
        ClusterReport entry;
        entry.cluster = c;
        entry.mc_accesses = mc.accesses();
        entry.mc_bytes = mc.bytesMoved();
        entry.mc_mean_service_ns = mc.serviceTime().mean() / 1000.0;
        entry.mc_peak_queue = mc.peakQueueDepth();
        entry.mshr_full_stalls = hub.mshrs().fullStalls();
        entry.network_requests = hub.networkRequests();
        entry.local_requests = hub.localRequests();
        report.clusters.push_back(entry);
    }
    return report;
}

} // namespace corona::core
