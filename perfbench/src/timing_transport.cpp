#include "timing_transport.hpp"

#include "rpc/messages.hpp"

namespace perfbench {

namespace {

namespace rpc = blobseer::rpc;

/// Chunk events kept for the engine rung (the replay is capped anyway).
constexpr std::size_t kMaxChunkEvents = 1u << 20;

}  // namespace

blobseer::Future<blobseer::Buffer> TimingTransport::record(
    blobseer::ConstBytes frame, blobseer::Future<blobseer::Buffer> reply) {
    const auto ctx = rpc::frame_trace(frame);
    if (!ctx.active()) {
        return reply;
    }
    const rpc::FrameView view = rpc::parse_frame(frame);
    FrameRecord rec;
    rec.trace_id = ctx.trace_id;
    rec.span_id = ctx.span_id;
    rec.type = view.type;
    rec.request_bytes = frame.size();
    rec.start_ns = now_ns();
    if (view.type == rpc::MsgType::kChunkPut) {
        rpc::WireReader r(view.payload);
        (void)rpc::get_chunk_key(r);
        const auto value = static_cast<ChunkEvent>(r.blob().size());
        const std::scoped_lock lock(mu_);
        if (chunk_events_.size() < kMaxChunkEvents) {
            chunk_events_.push_back(value);
        }
    }
    return blobseer::map_future<blobseer::Buffer>(
        std::move(reply), [this, rec](blobseer::Buffer&& resp) mutable {
            rec.end_ns = now_ns();
            rec.response_bytes = resp.size();
            rec.ok = rpc::frame_status(resp) == rpc::Status::kOk;
            ChunkEvent got = 0;
            if (rec.ok && rec.type == rpc::MsgType::kChunkGet) {
                rpc::WireReader r(rpc::parse_frame(resp).payload);
                (void)r.u64();  // chunk size
                got = -static_cast<ChunkEvent>(r.blob().size());
            }
            {
                const std::scoped_lock lock(mu_);
                frames_.push_back(rec);
                if (got != 0 && chunk_events_.size() < kMaxChunkEvents) {
                    chunk_events_.push_back(got);
                }
            }
            return std::move(resp);
        });
}

std::vector<FrameRecord> TimingTransport::take_frames() {
    const std::scoped_lock lock(mu_);
    return std::exchange(frames_, {});
}

std::vector<ChunkEvent> TimingTransport::take_chunk_events() {
    const std::scoped_lock lock(mu_);
    return std::exchange(chunk_events_, {});
}

}  // namespace perfbench
