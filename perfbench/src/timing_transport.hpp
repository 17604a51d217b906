/// \file timing_transport.hpp
/// \brief rpc::Transport decorator that records every traced frame.
///
/// Wraps the client's real transport in the traced run. For each request
/// that carries a trace id it records the message type, the span id the
/// ServiceClient stamped into the header, request and response sizes, and
/// the interval from send to response completion. Chunk puts and gets
/// also append their value size to the chunk stream that the engine rung
/// replays. Untraced frames (set-up, trace and metrics dumps) pass through
/// unrecorded.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "rpc/protocol.hpp"
#include "rpc/transport.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now().time_since_epoch())
        .count();
}

struct FrameRecord {
    std::uint64_t trace_id = 0;
    std::uint32_t span_id = 0;
    blobseer::rpc::MsgType type = blobseer::rpc::MsgType::kTopology;
    bool ok = false;
    std::uint64_t request_bytes = 0;
    std::uint64_t response_bytes = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// One chunk-store access in issue order: value bytes put (> 0) or read
/// back (< 0).
using ChunkEvent = std::int64_t;

class TimingTransport final : public blobseer::rpc::Transport {
  public:
    explicit TimingTransport(std::shared_ptr<blobseer::rpc::Transport> inner)
        : inner_(std::move(inner)) {}

    blobseer::Future<blobseer::Buffer> call_async(
        blobseer::NodeId dst, blobseer::ConstBytes frame) override {
        return record(frame, inner_->call_async(dst, frame));
    }

    blobseer::Future<blobseer::Buffer> call_async_via(
        blobseer::NodeId via, blobseer::NodeId dst,
        blobseer::ConstBytes frame) override {
        return record(frame, inner_->call_async_via(via, dst, frame));
    }

    /// Move out everything recorded so far.
    std::vector<FrameRecord> take_frames();
    std::vector<ChunkEvent> take_chunk_events();

  private:
    blobseer::Future<blobseer::Buffer> record(
        blobseer::ConstBytes frame, blobseer::Future<blobseer::Buffer> reply);

    std::shared_ptr<blobseer::rpc::Transport> inner_;
    std::mutex mu_;  // guards frames_ and chunk_events_
    std::vector<FrameRecord> frames_;
    std::vector<ChunkEvent> chunk_events_;
};

}  // namespace perfbench
