/// \file main.cpp
/// \brief perfbench: end-to-end benchmark of a blobseer_serverd daemon
///        over TCP.
///
///   perfbench --workload <vm-boot|bulk-rw|small-append> --seed <n>
///             --seconds <s> --trace <0|1> --serverd <path> --workdir <dir>
///             [--threads <1|2>]
///
/// Runs rounds for about --seconds. Each round starts a fresh daemon,
/// sets it up (timed as set-up), drives it from two client threads sharing
/// one BlobSeerClient through the same fixed amount of work, checks what
/// it stored, and stops it and deletes its files. Every metric is taken
/// per round and the median over rounds is reported. Prints one JSON
/// line: with --trace 0 the end-to-end metrics, with --trace 1 the
/// per-layer breakdown of a traced run. Exits 1 on any wrong byte, failed
/// property or failed call, 2 on a usage or set-up error.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/remote.hpp"
#include "daemon.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

/// Fewest rounds a run makes, so that the medians have something to
/// choose from however short --seconds is.
constexpr std::size_t kMinRounds = 3;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string serverd;
    std::filesystem::path workdir;
    /// Client threads; 1 makes per-operation counts repeatable.
    int threads = 2;
};

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + arg);
        }
        const std::string val = argv[++i];
        if (arg == "--workload") {
            a.workload = val;
        } else if (arg == "--seed") {
            a.seed = std::stoull(val);
        } else if (arg == "--seconds") {
            a.seconds = std::stod(val);
        } else if (arg == "--trace") {
            a.trace = val == "1";
        } else if (arg == "--serverd") {
            a.serverd = val;
        } else if (arg == "--workdir") {
            a.workdir = val;
        } else if (arg == "--threads") {
            a.threads = std::stoi(val);
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (a.workload.empty() || a.serverd.empty() || a.workdir.empty() || !(a.seconds > 0)) {
        throw std::invalid_argument("need --workload, --serverd, --workdir and --seconds > 0");
    }
    if (a.threads != 1 && a.threads != 2) {
        throw std::invalid_argument("--threads must be 1 or 2");
    }
    return a;
}

/// Linear-interpolated quantile of \p v (sorted in place).
double quantile(std::vector<double>& v, double q) {
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Latencies of \p v, in us.
std::vector<double> latencies(const std::vector<Timed>& v) {
    std::vector<double> out;
    out.reserve(v.size());
    for (const auto& t : v) {
        out.push_back(t.value);
    }
    return out;
}

/// Seconds from the first start to the last end of the calls in \p v.
double busy_s(const std::vector<Timed>& v) {
    if (v.empty()) {
        return 0;
    }
    double first = 0;
    double last = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double start = static_cast<double>(v[i].at_ns) - v[i].value * 1e3;
        const double end = static_cast<double>(v[i].at_ns);
        first = i == 0 ? start : std::min(first, start);
        last = i == 0 ? end : std::max(last, end);
    }
    return (last - first) / 1e9;
}

double per_s(double amount, double seconds) { return seconds > 0 ? amount / seconds : 0.0; }

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
    to.insert(to.end(), from.begin(), from.end());
}

/// This machine's CPU time so far, in ticks: {stolen, all}, from the
/// "cpu" line of /proc/stat. Stolen time is time a virtual CPU wanted to
/// run but its host ran something else.
std::pair<double, double> cpu_ticks() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double all = 0;
    double steal = 0;
    for (int i = 0; i < 8; ++i) {
        double v = 0;
        in >> v;
        all += v;
        if (i == 7) {
            steal = v;
        }
    }
    return {steal, all};
}

/// What one round measured and checked.
struct Round {
    std::vector<Metric> metrics;
    ThreadResult all;  ///< every thread's results, merged
    std::vector<std::string> errors;
    std::int64_t wall_ns = 0;  ///< the whole round, set-up to clean-up
    double steal = 0;          ///< share of the CPU time stolen over the round
};

Round run_round(const Args& args, Workload& workload, RunContext& ctx, int index) {
    Round out;
    ctx.round = index;
    const std::int64_t t0 = now_ns();
    const auto ticks0 = cpu_ticks();
    const std::filesystem::path root = args.workdir / ("daemon-" + std::to_string(index));

    // ---- set-up: spawn to ready, plus preload ----
    Daemon daemon(args.serverd, root);
    AnonPeakSampler sampler(daemon.pid());
    ctx.port = daemon.port();
    auto env = blobseer::core::connect_tcp("127.0.0.1", ctx.port);
    std::shared_ptr<TimingTransport> timing;
    if (args.trace) {
        timing = std::make_shared<TimingTransport>(env.transport);
        env.transport = timing;
        env.trace = true;
    }
    auto client = std::make_unique<BlobSeerClient>(std::move(env));
    workload.setup(ctx, *client);
    const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;

    // ---- measured window ----
    LayerInputs layers;
    std::unique_ptr<SpanCollector> spans;
    if (args.trace) {
        layers.before = client->services().metrics_dump();
        (void)timing->take_frames();
        (void)timing->take_chunk_events();
        spans = std::make_unique<SpanCollector>(client->services());
    }
    const std::uint64_t hits0 = client->meta_cache().hits();
    const std::uint64_t misses0 = client->meta_cache().misses();
    std::vector<ThreadResult> results(static_cast<std::size_t>(args.threads));
    const std::int64_t start = now_ns();
    {
        std::vector<std::jthread> threads;
        for (int t = 0; t < args.threads; ++t) {
            threads.emplace_back([&, t] {
                try {
                    workload.run(ctx, *client, t, results[t]);
                } catch (const std::exception& e) {
                    ++results[t].failed;
                    results[t].failures.push_back(std::string("client thread died: ") + e.what());
                }
            });
        }
    }
    const double window_s = static_cast<double>(now_ns() - start) / 1e9;
    const std::uint64_t anon_peak_kib = sampler.stop();
    const std::uint64_t disk = dir_bytes(root);
    if (args.trace) {
        layers.server_spans = spans->finish();
        layers.after = client->services().metrics_dump();
        layers.frames = timing->take_frames();
        layers.chunk_events = timing->take_chunk_events();
    }
    layers.cache_hits = client->meta_cache().hits() - hits0;
    layers.cache_misses = client->meta_cache().misses() - misses0;

    // ---- checks after the window ----
    out.errors = workload.verify(ctx, *client);
    ThreadResult& all = out.all;
    for (auto& r : results) {
        append(all.write_us, r.write_us);
        append(all.read_us, r.read_us);
        append(all.clone_us, r.clone_us);
        append(all.traced, r.traced);
        append(all.failures, r.failures);
        all.units += r.units;
        all.bytes_written += r.bytes_written;
        all.bytes_read += r.bytes_read;
        all.attempted += r.attempted;
        all.failed += r.failed;
        append(out.errors, r.errors);
    }
    client.reset();
    daemon.stop();
    std::filesystem::remove_all(root);

    const double ops_per_s = per_s(static_cast<double>(all.units), window_s);
    if (args.trace) {
        layers.ops = all.traced;
        layers.bytes_written = all.bytes_written;
        layers.bytes_read = all.bytes_read;
        layers.disk_bytes = disk;
        layers.ops_per_s = ops_per_s;
        layers.rung_dir = args.workdir / "engine-rung";
        out.metrics = layer_metrics(layers);
    } else {
        auto w = latencies(all.write_us);
        auto r = latencies(all.read_us);
        const double mib = static_cast<double>(MiB);
        out.metrics = {
            {"setup_s", setup_s, "s"},
            {"ops_per_s", ops_per_s, "op/s"},
            {"write_p50_us", quantile(w, 0.5), "us"},
            {"write_p90_us", quantile(w, 0.9), "us"},
            {"read_p50_us", quantile(r, 0.5), "us"},
            {"read_p90_us", quantile(r, 0.9), "us"},
            {"write_MiBps", per_s(static_cast<double>(all.bytes_written) / mib, busy_s(all.write_us)), "MiB/s"},
            {"read_MiBps", per_s(static_cast<double>(all.bytes_read) / mib, busy_s(all.read_us)), "MiB/s"},
            {"disk_bytes_per_user_byte",
             static_cast<double>(disk) /
                 static_cast<double>(all.bytes_written + workload.setup_bytes()),
             "B/B"},
            {"server_anon_peak_mib", static_cast<double>(anon_peak_kib) / 1024.0, "MiB"},
        };
    }
    out.wall_ns = now_ns() - t0;
    const auto ticks1 = cpu_ticks();
    out.steal = (ticks1.first - ticks0.first) / std::max(1.0, ticks1.second - ticks0.second);
    return out;
}

int run(const Args& args) {
    auto workload = make_workload(args.workload);
    std::filesystem::remove_all(args.workdir);
    std::filesystem::create_directories(args.workdir);

    RunContext ctx;
    ctx.seed = args.seed;
    ctx.traced = args.trace;
    ctx.threads = args.threads;

    // Rounds go on while the next one, as long as the median round so
    // far, still ends within --seconds.
    std::vector<Round> rounds;
    std::vector<double> round_ns;
    const std::int64_t start = now_ns();
    const double budget_ns = args.seconds * 1e9;
    for (;;) {
        rounds.push_back(run_round(args, *workload, ctx, static_cast<int>(rounds.size())));
        round_ns.push_back(static_cast<double>(rounds.back().wall_ns));
        const double elapsed = static_cast<double>(now_ns() - start);
        auto sorted = round_ns;
        if (rounds.size() >= kMinRounds && elapsed + quantile(sorted, 0.5) > budget_ns) {
            break;
        }
    }
    std::filesystem::remove_all(args.workdir);

    // Each metric is the median of its values in the third of the rounds
    // (at least kMinRounds) that lost the least CPU time to the host:
    // this machine's virtual CPUs are shared, and a round whose CPUs were
    // taken away for a while measures the host, not the program.
    std::vector<const Round*> quiet;
    for (const auto& r : rounds) {
        quiet.push_back(&r);
    }
    std::stable_sort(quiet.begin(), quiet.end(),
                     [](const Round* a, const Round* b) { return a->steal < b->steal; });
    quiet.resize(std::min(quiet.size(), std::max(kMinRounds, (quiet.size() + 2) / 3)));
    std::vector<Metric> metrics = rounds.front().metrics;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::vector<double> v;
        for (const Round* r : quiet) {
            v.push_back(r->metrics[i].value);
        }
        metrics[i].value = quantile(v, 0.5);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<double> w;
    std::vector<double> r;
    std::vector<double> c;
    for (const auto& round : rounds) {
        attempted += round.all.attempted;
        failed += round.all.failed;
        append(errors, round.errors);
        for (const auto& f : round.all.failures) {
            std::cerr << "perfbench: " << f << "\n";
        }
        append(w, latencies(round.all.write_us));
        append(r, latencies(round.all.read_us));
        append(c, latencies(round.all.clone_us));
    }
    for (const auto& e : errors) {
        std::cerr << "perfbench: " << e << "\n";
    }
    // Sample counts and p99s over the whole run, for reading only: p99
    // repeats too poorly between runs to be a bounded metric.
    std::vector<double> steal;
    for (const auto& round : rounds) {
        steal.push_back(round.steal);
    }
    std::cerr << "perfbench: " << rounds.size() << " rounds (" << quiet.size()
              << " quietest reported, CPU time stolen " << quantile(steal, 0) * 100 << "-"
              << quantile(steal, 1) * 100 << " %) in "
              << static_cast<double>(now_ns() - start) / 1e9 << " s; " << w.size() << " writes, "
              << r.size() << " reads, " << c.size() << " clones; p99 write " << quantile(w, 0.99)
              << " us, read " << quantile(r, 0.99) << " us; clone p50 " << quantile(c, 0.5)
              << " us, p99 " << quantile(c, 0.99) << " us\n";

    // A call that threw is as wrong as a wrong byte: its latency is
    // missing from the figures, so they cannot be trusted either.
    const bool correct = errors.empty() && failed == 0;
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
           << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(perfbench::parse(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
