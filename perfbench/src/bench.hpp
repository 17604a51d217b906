/// \file bench.hpp
/// \brief Types shared by the benchmark's workloads, main program and layer
///        breakdown.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/trace.hpp"
#include "core/client.hpp"
#include "timing_transport.hpp"

namespace perfbench {

using blobseer::BlobId;
using blobseer::Version;
using blobseer::core::BlobSeerClient;

inline constexpr std::uint64_t KiB = 1024;
inline constexpr std::uint64_t MiB = 1024 * KiB;

/// The kinds of public client call a workload makes.
enum class OpKind : std::uint8_t { kWrite, kRead, kClone };

/// One traced top-level call: its trace id ties it to its RPC frames.
struct OpRecord {
    std::uint64_t trace_id = 0;
    OpKind kind = OpKind::kWrite;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// A value stamped with the time its operation completed.
struct Timed {
    std::int64_t at_ns = 0;
    double value = 0;
};

/// What one client thread measured and checked in one round.
struct ThreadResult {
    std::vector<Timed> write_us;
    std::vector<Timed> read_us;
    std::vector<Timed> clone_us;
    std::uint64_t units = 0;          ///< boots, appends, or bulk writes + reads
    std::uint64_t bytes_written = 0;  ///< user bytes of completed writes
    std::uint64_t bytes_read = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<OpRecord> traced;
    std::vector<std::string> errors;    ///< wrong bytes or failed properties
    std::vector<std::string> failures;  ///< calls that threw

    void unit_done() { ++units; }
    void wrote(std::uint64_t n) { bytes_written += n; }
    void read(std::uint64_t n) { bytes_read += n; }
};

/// Times one public client call and accounts it. A call that throws
/// counts as failed; the caller checks returned bytes and reports wrong
/// ones through wrong().
class Caller {
  public:
    Caller(ThreadResult& out, bool traced) : out_(out), traced_(traced) {}

    template <typename F>
    auto operator()(OpKind kind, F&& fn)
        -> std::optional<decltype(fn())> {
        ++out_.attempted;
        OpRecord rec;
        rec.kind = kind;
        std::optional<blobseer::trace::TraceScope> scope;
        if (traced_) {
            blobseer::trace::TraceContext ctx;
            ctx.trace_id = blobseer::trace::new_trace_id();
            ctx.span_id = blobseer::trace::new_span_id();
            ctx.flags = blobseer::trace::TraceContext::kSampled;
            rec.trace_id = ctx.trace_id;
            scope.emplace(ctx);
        }
        try {
            rec.start_ns = now_ns();
            auto result = fn();
            rec.end_ns = now_ns();
            const double us = static_cast<double>(rec.end_ns - rec.start_ns) / 1e3;
            if (kind == OpKind::kWrite) {
                out_.write_us.push_back({rec.end_ns, us});
            } else if (kind == OpKind::kRead) {
                out_.read_us.push_back({rec.end_ns, us});
            } else if (kind == OpKind::kClone) {
                out_.clone_us.push_back({rec.end_ns, us});
            }
            if (traced_) {
                out_.traced.push_back(rec);
            }
            return result;
        } catch (const std::exception& e) {
            ++out_.failed;
            if (out_.failures.size() < 8) {
                out_.failures.push_back(std::string("call failed: ") + e.what());
            }
            return std::nullopt;
        }
    }

    /// A call returned wrong bytes or broke a property.
    void wrong(const std::string& what) {
        ++out_.failed;
        if (out_.errors.size() < 8) {
            out_.errors.push_back(what);
        }
    }

  private:
    ThreadResult& out_;
    bool traced_;
};

/// Shared run parameters.
struct RunContext {
    std::uint64_t seed = 0;
    bool traced = false;
    int threads = 2;
    int round = 0;  ///< index of the current round in the run
    std::uint16_t port = 0;
};

/// One workload, run as rounds of a fixed amount of work. Each round
/// sets up a fresh daemon, drives it from every client thread, then
/// checks what was stored.
class Workload {
  public:
    virtual ~Workload() = default;
    /// Preload the fresh daemon (gold image, shared blob...) and reset
    /// the state kept for verify().
    virtual void setup(const RunContext& ctx, BlobSeerClient& client) = 0;
    /// One client thread's share of the round: the same operations in
    /// every round, whatever the seed.
    virtual void run(const RunContext& ctx, BlobSeerClient& client, int thread,
                     ThreadResult& out) = 0;
    /// Properties checked once after the round's measured window;
    /// returns the violations found.
    virtual std::vector<std::string> verify(const RunContext& ctx,
                                            BlobSeerClient& client) = 0;
    /// User bytes written by set-up (counted in disk bytes per user byte).
    [[nodiscard]] virtual std::uint64_t setup_bytes() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
