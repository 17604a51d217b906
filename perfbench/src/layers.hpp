/// \file layers.hpp
/// \brief The traced run's per-layer breakdown: server span collection,
///        the engine rung, and the derived per-layer metrics.

#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "common/metrics.hpp"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// Server half of one RPC span.
struct ServerSpan {
    std::uint64_t queue_us = 0;
    std::uint64_t handle_us = 0;
};

/// Polls the daemon's span ring (trace_dump) often enough that it does
/// not roll over between polls, keeping the server halves of traced
/// spans by (trace id, span id).
class SpanCollector {
  public:
    explicit SpanCollector(blobseer::rpc::ServiceClient& services);
    ~SpanCollector();
    SpanCollector(const SpanCollector&) = delete;
    SpanCollector& operator=(const SpanCollector&) = delete;

    /// Stop polling, take one last dump and return what was collected.
    std::unordered_map<std::uint64_t, ServerSpan> finish();

    /// Map key of a span.
    [[nodiscard]] static std::uint64_t key(std::uint64_t trace_id,
                                           std::uint32_t span_id) noexcept {
        return trace_id * 0x9e3779b97f4a7c15ULL ^ span_id;
    }

  private:
    void poll();

    blobseer::rpc::ServiceClient& services_;
    std::unordered_map<std::uint64_t, ServerSpan> spans_;
    std::atomic<bool> stop_{false};
    std::thread thread_;  // declared last: joins before the rest dies
};

/// Everything the traced run hands to the breakdown.
struct LayerInputs {
    std::vector<FrameRecord> frames;
    std::vector<OpRecord> ops;
    std::unordered_map<std::uint64_t, ServerSpan> server_spans;
    blobseer::MetricsSnapshot before;
    blobseer::MetricsSnapshot after;
    std::uint64_t cache_hits = 0;    ///< metadata cache, over the window
    std::uint64_t cache_misses = 0;
    std::uint64_t bytes_written = 0;  ///< user bytes, over the window
    std::uint64_t bytes_read = 0;
    std::uint64_t disk_bytes = 0;     ///< under the daemon's disk root
    double ops_per_s = 0;  ///< the traced run's rate, as the untraced run reports it
    std::vector<ChunkEvent> chunk_events;
    std::filesystem::path rung_dir;  ///< scratch directory of the engine rung
};

/// The per-layer metrics, in a fixed order and all always present.
[[nodiscard]] std::vector<Metric> layer_metrics(const LayerInputs& in);

}  // namespace perfbench
