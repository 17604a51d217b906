/// \file layers.cpp
/// \brief Per-layer metrics of the traced run.
///
/// Client-side RPC intervals come from the TimingTransport, server queue
/// and handle times from the daemon's span ring (matched by span id),
/// counters from metrics_dump deltas around the measured window, and the
/// engine's put / get_ref cost from replaying the recorded chunk stream
/// against an in-process LogEngine configured like a `--store log`
/// provider.

#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "engine/format.hpp"
#include "engine/log_engine.hpp"
#include "gen.hpp"
#include "rpc/service_client.hpp"

namespace perfbench {

namespace {

using blobseer::MetricKind;
using blobseer::MetricsSnapshot;
using blobseer::rpc::MsgType;

/// The RPCs broken out one by one, with their metric names (the server
/// labels its latency histogram with to_string(type)).
struct RpcOp {
    MsgType type;
    const char* name;
};
constexpr RpcOp kRpcOps[] = {
    {MsgType::kChunkPut, "chunk_put"},     {MsgType::kChunkGet, "chunk_get"},
    {MsgType::kMetaPut, "meta_put"},       {MsgType::kMetaGet, "meta_get"},
    {MsgType::kAssign, "assign"},          {MsgType::kCommit, "commit"},
    {MsgType::kWaitPublished, "wait_published"},
    {MsgType::kGetVersion, "get_version"}, {MsgType::kBlobClone, "blob_clone"},
};

/// Replayed chunk puts stop at this many value bytes; later puts are
/// skipped, and later gets read among the values replayed.
constexpr std::uint64_t kRungPutBytes = 256 * MiB;

std::uint64_t counter_sum(const MetricsSnapshot& snap, const std::string& name) {
    std::uint64_t total = 0;
    for (const auto& s : snap.samples) {
        if (s.name == name) {
            total += s.kind == MetricKind::kHistogram ? s.count : s.value;
        }
    }
    return total;
}

std::uint64_t counter_delta(const LayerInputs& in, const std::string& name) {
    return counter_sum(in.after, name) - counter_sum(in.before, name);
}

/// Mean handle time of one op from the server latency histogram deltas.
double handle_mean_us(const LayerInputs& in, const char* op) {
    auto find = [op](const MetricsSnapshot& snap) -> std::pair<std::uint64_t, std::uint64_t> {
        for (const auto& s : snap.samples) {
            if (s.name == "rpc_server_latency_us" && !s.labels.empty() &&
                s.labels.front().second == op) {
                return {s.count, s.sum};
            }
        }
        return {0, 0};
    };
    const auto [c0, s0] = find(in.before);
    const auto [c1, s1] = find(in.after);
    return c1 > c0 ? static_cast<double>(s1 - s0) / static_cast<double>(c1 - c0) : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Length of the union of [start, end) intervals, in ns.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv) {
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t cur_start = 0;
    std::int64_t cur_end = -1;
    for (const auto& [s, e] : iv) {
        if (s > cur_end) {
            if (cur_end > cur_start) {
                total += cur_end - cur_start;
            }
            cur_start = s;
            cur_end = e;
        } else {
            cur_end = std::max(cur_end, e);
        }
    }
    if (cur_end > cur_start) {
        total += cur_end - cur_start;
    }
    return total;
}

struct RungResult {
    double put_us = 0;
    double get_ref_us = 0;
};

RungResult engine_rung(const std::vector<ChunkEvent>& events,
                       const std::filesystem::path& dir) {
    std::filesystem::remove_all(dir);
    RungResult out;
    {
        blobseer::engine::EngineConfig cfg;  // the daemon's --store log defaults
        cfg.dir = dir;
        blobseer::engine::LogEngine engine(cfg);
        std::int64_t largest = 0;
        for (const ChunkEvent e : events) {
            largest = std::max(largest, e);
        }
        blobseer::Buffer value(static_cast<std::size_t>(largest));
        fill_stream(stream_key(0, 0x72756e67), 0, blobseer::MutableBytes(value.data(), value.size() / 8 * 8));
        std::vector<std::string> keys;
        std::uint64_t put_bytes = 0;
        std::uint64_t gets = 0;
        double put_ns = 0;
        double get_ns = 0;
        for (const ChunkEvent e : events) {
            if (e > 0) {
                if (put_bytes + static_cast<std::uint64_t>(e) > kRungPutBytes) {
                    continue;
                }
                blobseer::Buffer k;
                blobseer::engine::put_u64(k, 1);
                blobseer::engine::put_u64(k, keys.size());
                keys.emplace_back(k.begin(), k.end());
                const std::int64_t t0 = now_ns();
                (void)engine.put_if_absent(keys.back(),
                                           blobseer::ConstBytes(value.data(), static_cast<std::size_t>(e)));
                put_ns += static_cast<double>(now_ns() - t0);
                put_bytes += static_cast<std::uint64_t>(e);
            } else if (!keys.empty()) {
                // Gets hit earlier puts spread over the whole history.
                const std::string& k = keys[(gets * 2654435761ULL) % keys.size()];
                const std::int64_t t0 = now_ns();
                const auto ref = engine.get_ref(k);
                get_ns += static_cast<double>(now_ns() - t0);
                if (!ref) {
                    throw std::runtime_error("engine rung: a replayed chunk is missing");
                }
                ++gets;
            }
        }
        out.put_us = ratio(put_ns / 1e3, static_cast<double>(keys.size()));
        out.get_ref_us = ratio(get_ns / 1e3, static_cast<double>(gets));
    }
    std::filesystem::remove_all(dir);
    return out;
}

}  // namespace

SpanCollector::SpanCollector(blobseer::rpc::ServiceClient& services)
    : services_(services) {
    thread_ = std::thread([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
            poll();
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
    });
}

SpanCollector::~SpanCollector() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
        thread_.join();
    }
}

std::unordered_map<std::uint64_t, ServerSpan> SpanCollector::finish() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
        thread_.join();
    }
    poll();
    return std::move(spans_);
}

void SpanCollector::poll() {
    for (const auto& s : services_.trace_dump(0, 0)) {
        if (s.kind == blobseer::trace::SpanRecord::kServer && s.trace_id != 0) {
            spans_[key(s.trace_id, s.span_id)] = ServerSpan{s.queue_us, s.duration_us};
        }
    }
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
    std::vector<Metric> out;
    auto add = [&out](std::string name, double value, std::string unit) {
        out.push_back(Metric{std::move(name), value, std::move(unit)});
    };

    // Frames of each traced call, by trace id.
    std::unordered_map<std::uint64_t, std::vector<const FrameRecord*>> by_trace;
    for (const auto& f : in.frames) {
        by_trace[f.trace_id].push_back(&f);
    }

    // core: self time, RPC count and wire bytes per write and per read.
    struct KindTotals {
        double ops = 0;
        double self_ns = 0;
        double rpcs = 0;
        double wire_bytes = 0;
        double meta_puts = 0;
        double meta_gets = 0;
    };
    std::map<OpKind, KindTotals> kinds;
    for (const auto& op : in.ops) {
        KindTotals& k = kinds[op.kind];
        k.ops += 1;
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        if (const auto it = by_trace.find(op.trace_id); it != by_trace.end()) {
            for (const FrameRecord* f : it->second) {
                iv.emplace_back(f->start_ns, f->end_ns);
                k.rpcs += 1;
                k.wire_bytes += static_cast<double>(f->request_bytes + f->response_bytes);
                k.meta_puts += f->type == MsgType::kMetaPut ? 1 : 0;
                k.meta_gets += f->type == MsgType::kMetaGet ? 1 : 0;
            }
        }
        k.self_ns += static_cast<double>((op.end_ns - op.start_ns) - union_ns(iv));
    }
    const KindTotals& w = kinds[OpKind::kWrite];
    const KindTotals& r = kinds[OpKind::kRead];
    add("core.write.self_us", ratio(w.self_ns / 1e3, w.ops), "us");
    add("core.read.self_us", ratio(r.self_ns / 1e3, r.ops), "us");
    add("core.rpcs_per_write", ratio(w.rpcs, w.ops), "rpc/op");
    add("core.rpcs_per_read", ratio(r.rpcs, r.ops), "rpc/op");
    add("core.wire_bytes_per_user_byte", ratio(w.wire_bytes, static_cast<double>(in.bytes_written)), "B/B");
    add("core.meta_cache_hit_ratio",
        ratio(static_cast<double>(in.cache_hits), static_cast<double>(in.cache_hits + in.cache_misses)),
        "ratio");

    // rpc + dispatch: round trip, wire share and server time per op.
    double queue_total = 0;
    double matched = 0;
    double publish_wait_ns = 0;
    for (const auto& op : kRpcOps) {
        double n = 0;
        double rtt_ns = 0;
        double wire_n = 0;
        double wire_ns = 0;
        for (const auto& f : in.frames) {
            if (f.type != op.type) {
                continue;
            }
            const double rtt = static_cast<double>(f.end_ns - f.start_ns);
            n += 1;
            rtt_ns += rtt;
            if (const auto it = in.server_spans.find(SpanCollector::key(f.trace_id, f.span_id));
                it != in.server_spans.end()) {
                wire_n += 1;
                wire_ns += rtt - 1e3 * static_cast<double>(it->second.queue_us + it->second.handle_us);
                queue_total += static_cast<double>(it->second.queue_us);
                matched += 1;
            }
        }
        if (op.type == MsgType::kWaitPublished) {
            publish_wait_ns = rtt_ns;
        }
        add(std::string("rpc.") + op.name + ".rtt_us", ratio(rtt_ns / 1e3, n), "us");
        add(std::string("rpc.") + op.name + ".wire_us", ratio(wire_ns / 1e3, wire_n), "us");
    }
    add("rpc.bytes_copied_per_read_byte",
        ratio(static_cast<double>(counter_delta(in, "rpc_bytes_copied_total")),
              static_cast<double>(in.bytes_read)),
        "B/B");
    add("dispatch.queue_us", ratio(queue_total, matched), "us");
    for (const auto& op : kRpcOps) {
        add(std::string("dispatch.") + op.name + ".handle_us",
            handle_mean_us(in, blobseer::rpc::to_string(op.type)), "us");
    }

    // version: publication waits and the pending-version backlog.
    add("version.publish_wait_us", ratio(publish_wait_ns / 1e3, w.ops), "us");
    std::uint64_t backlog_peak = 0;
    for (const auto& s : in.after.samples) {
        if (s.name == "vm_publish_backlog") {
            backlog_peak = std::max(backlog_peak, s.high_water);
        }
    }
    add("version.backlog_peak", static_cast<double>(backlog_peak), "count");

    // meta: tree nodes moved per operation.
    add("meta.nodes_written_per_write", ratio(w.meta_puts, w.ops), "node/op");
    add("meta.nodes_fetched_per_read", ratio(r.meta_gets, r.ops), "node/op");

    // engine: replayed cost, space and the zero-copy read share.
    const RungResult rung = engine_rung(in.chunk_events, in.rung_dir);
    add("engine.put_us", rung.put_us, "us");
    add("engine.get_ref_us", rung.get_ref_us, "us");
    add("engine.disk_bytes_per_live_byte",
        ratio(static_cast<double>(in.disk_bytes),
              static_cast<double>(counter_sum(in.after, "engine_live_value_bytes"))),
        "B/B");
    const double mmap_gets = static_cast<double>(counter_delta(in, "engine_ref_gets_mmap_total"));
    const double copy_gets = static_cast<double>(counter_delta(in, "engine_ref_gets_copy_total"));
    add("engine.ref_gets_mmap_ratio", ratio(mmap_gets, mmap_gets + copy_gets), "ratio");

    // The traced run's own rate (its gap to the untraced ops_per_s is the
    // tracing overhead) and how many client spans found their server half.
    add("trace.ops_per_s", in.ops_per_s, "op/s");
    double all_matched = 0;
    for (const auto& f : in.frames) {
        all_matched += in.server_spans.count(SpanCollector::key(f.trace_id, f.span_id));
    }
    add("trace.span_match_ratio", ratio(all_matched, static_cast<double>(in.frames.size())),
        "ratio");
    return out;
}

}  // namespace perfbench
