/// \file workloads.cpp
/// \brief vm-boot, bulk-rw and small-append: the operations each client
///        thread issues, and the checks made on what comes back.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/remote.hpp"
#include "gen.hpp"

namespace perfbench {

namespace {

using blobseer::Buffer;
using blobseer::ConstBytes;
using blobseer::MutableBytes;

// Stream labels: every content stream is keyed by (seed, label, ...).
constexpr std::uint64_t kGoldLabel = 1;
constexpr std::uint64_t kBootLabel = 2;
constexpr std::uint64_t kBootPickLabel = 3;
constexpr std::uint64_t kBulkLabel = 4;
constexpr std::uint64_t kBulkPickLabel = 5;
constexpr std::uint64_t kRecordLabel = 6;

std::string where(const char* what, std::uint64_t blob, std::uint64_t offset,
                  long long at) {
    return std::string(what) + ": wrong byte in blob " + std::to_string(blob) +
           " at offset " + std::to_string(offset + static_cast<std::uint64_t>(at));
}

// ---- vm-boot ------------------------------------------------------------------

/// The paper's multideployment case: every boot clones one gold image,
/// writes its own chunk 0 and reads chunks it left untouched.
class VmBoot final : public Workload {
  public:
    static constexpr std::uint64_t kChunk = 256 * KiB;
    static constexpr std::uint64_t kGoldBytes = 64 * MiB;
    static constexpr std::uint64_t kGoldChunks = kGoldBytes / kChunk;
    static constexpr int kReadsPerBoot = 4;
    /// Boots per client thread and round: 400 boots write 200 MiB of
    /// chunk replicas, which with the gold image's 128 MiB stays well
    /// below the kernel's background writeback threshold (see README.md).
    static constexpr std::uint64_t kBootsPerThread = 200;

    void setup(const RunContext& ctx, BlobSeerClient& /*client*/) override {
        // A separate client uploads the image, so the booting client
        // starts with a cold metadata cache, like a host that never saw
        // the upload.
        BlobSeerClient uploader(blobseer::core::connect_tcp("127.0.0.1", ctx.port));
        const auto gold = uploader.create(kChunk);
        Buffer image(kGoldBytes);
        fill_stream(stream_key(ctx.seed, kGoldLabel), 0, image);
        gold_version_ = uploader.write(gold.id(), 0, image);
        gold_ = gold.id();
        last_boot_[0] = last_boot_[1] = LastBoot{};
    }

    void run(const RunContext& ctx, BlobSeerClient& client, int thread,
             ThreadResult& out) override {
        Caller call(out, ctx.traced);
        Rng pick(stream_key(ctx.seed, kBootPickLabel, thread));
        Buffer chunk0(kChunk);
        Buffer got(kChunk);
        for (std::uint64_t boot = 0; boot < kBootsPerThread; ++boot) {
            const auto clone =
                call(OpKind::kClone, [&] { return client.clone(gold_, gold_version_).id(); });
            if (!clone) {
                continue;
            }
            const std::uint64_t key = stream_key(ctx.seed, kBootLabel, thread, boot);
            fill_stream(key, 0, chunk0);
            const auto v = call(OpKind::kWrite, [&] { return client.write(*clone, 0, chunk0); });
            if (!v) {
                continue;
            }
            out.wrote(kChunk);
            if (*v != 1) {
                call.wrong("clone " + std::to_string(*clone) + ": first write got version " +
                           std::to_string(*v));
            }
            // Distinct chunks the boot did not write (chunk 0 is its own).
            std::uint64_t chosen[kReadsPerBoot];
            for (int i = 0; i < kReadsPerBoot; ++i) {
                bool fresh = false;
                while (!fresh) {
                    chosen[i] = 1 + pick.below(kGoldChunks - 1);
                    fresh = std::find(chosen, chosen + i, chosen[i]) == chosen + i;
                }
            }
            for (const std::uint64_t c : chosen) {
                const std::uint64_t off = c * kChunk;
                const auto n = call(OpKind::kRead, [&] {
                    return client.read(*clone, *v, off, MutableBytes(got));
                });
                if (!n) {
                    continue;
                }
                out.read(kChunk);
                if (const long long at = first_mismatch(stream_key(ctx.seed, kGoldLabel), off, got);
                    at >= 0) {
                    call.wrong(where("vm-boot untouched chunk", *clone, off, at));
                }
            }
            out.unit_done();
            last_boot_[thread] = {*clone, *v, key};
        }
    }

    std::vector<std::string> verify(const RunContext& ctx, BlobSeerClient& client) override {
        std::vector<std::string> errors;
        Buffer image(kGoldBytes);
        client.read(gold_, gold_version_, 0, MutableBytes(image));
        if (const long long at = first_mismatch(stream_key(ctx.seed, kGoldLabel), 0, image); at >= 0) {
            errors.push_back(where("gold image after all boots", gold_, 0, at));
        }
        Buffer chunk0(kChunk);
        for (const auto& last : last_boot_) {
            if (last.blob == 0) {
                continue;
            }
            client.read(last.blob, last.version, 0, MutableBytes(chunk0));
            if (const long long at = first_mismatch(last.key, 0, chunk0); at >= 0) {
                errors.push_back(where("clone's own chunk 0", last.blob, 0, at));
            }
        }
        return errors;
    }

    [[nodiscard]] std::uint64_t setup_bytes() const override { return kGoldBytes; }

  private:
    struct LastBoot {
        BlobId blob = 0;
        Version version = 0;
        std::uint64_t key = 0;
    };
    BlobId gold_ = 0;
    Version gold_version_ = 0;
    LastBoot last_boot_[2];
};

// ---- bulk-rw ------------------------------------------------------------------

/// Data-intensive throughput. Each client thread fills its own blob with
/// 4 MiB writes, then, once every thread has filled its blob, makes 4 MiB
/// reads at random offsets of the final snapshot.
class BulkRw final : public Workload {
  public:
    static constexpr std::uint64_t kChunk = 64 * KiB;
    static constexpr std::uint64_t kIo = 4 * MiB;
    /// Two blobs of this size hold about twice as many tree nodes as the
    /// client's metadata cache.
    static constexpr std::uint64_t kBlobBytes = 128 * MiB;
    static constexpr std::uint64_t kRegions = kBlobBytes / kIo;
    static constexpr std::uint64_t kReadsPerThread = 64;
    /// Read offsets are multiples of this, so reads straddle chunks.
    static constexpr std::uint64_t kReadAlign = 4 * KiB;

    void setup(const RunContext& ctx, BlobSeerClient& client) override {
        for (int t = 0; t < ctx.threads; ++t) {
            blob_[t] = client.create(kChunk).id();
            version_[t] = 0;
        }
        filled_.emplace(ctx.threads);
    }

    void run(const RunContext& ctx, BlobSeerClient& client, int thread,
             ThreadResult& out) override {
        Caller call(out, ctx.traced);
        Buffer buf(kIo);
        const BlobId blob = blob_[thread];
        bool whole = true;
        for (std::uint64_t r = 0; r < kRegions && whole; ++r) {
            fill_stream(key(ctx, thread), r * kIo, buf);
            const auto v = call(OpKind::kWrite, [&] { return client.write(blob, r * kIo, buf); });
            if (!v) {
                whole = false;  // the blob's content is unknown from here on
                break;
            }
            out.wrote(kIo);
            out.unit_done();
            if (*v != version_[thread] + 1) {
                call.wrong("blob " + std::to_string(blob) + ": version " + std::to_string(*v) +
                           " after " + std::to_string(version_[thread]));
            }
            version_[thread] = *v;
        }
        filled_->arrive_and_wait();
        if (!whole) {
            return;
        }
        // Offsets differ from round to round: how many tree nodes a read
        // misses in the metadata cache depends on where it lands.
        Rng pick(stream_key(ctx.seed, kBulkPickLabel, static_cast<std::uint64_t>(thread),
                            static_cast<std::uint64_t>(ctx.round)));
        const Version v = version_[thread];
        for (std::uint64_t i = 0; i < kReadsPerThread; ++i) {
            const std::uint64_t off = pick.below((kBlobBytes - kIo) / kReadAlign + 1) * kReadAlign;
            if (!call(OpKind::kRead, [&] { return client.read(blob, v, off, MutableBytes(buf)); })) {
                continue;
            }
            out.read(kIo);
            out.unit_done();
            if (const long long at = first_mismatch(key(ctx, thread), off, buf); at >= 0) {
                call.wrong(where("bulk-rw read", blob, off, at));
            }
        }
    }

    std::vector<std::string> verify(const RunContext& ctx, BlobSeerClient& client) override {
        std::vector<std::string> errors;
        Buffer all(kBlobBytes);
        for (int t = 0; t < ctx.threads; ++t) {
            const auto info = client.stat(blob_[t]);
            if (info.version != kRegions || version_[t] != kRegions || info.size != kBlobBytes) {
                errors.push_back("blob " + std::to_string(blob_[t]) + ": latest snapshot is v" +
                                 std::to_string(info.version) + " of " +
                                 std::to_string(info.size) + " bytes, expected v" +
                                 std::to_string(kRegions) + " of " +
                                 std::to_string(kBlobBytes));
                continue;
            }
            client.read(blob_[t], kRegions, 0, MutableBytes(all));
            if (const long long at = first_mismatch(key(ctx, t), 0, all); at >= 0) {
                errors.push_back(where("bulk-rw final snapshot", blob_[t], 0, at));
            }
        }
        return errors;
    }

    [[nodiscard]] std::uint64_t setup_bytes() const override { return 0; }

  private:
    static std::uint64_t key(const RunContext& ctx, int thread) {
        return stream_key(ctx.seed, kBulkLabel, static_cast<std::uint64_t>(thread));
    }

    BlobId blob_[2] = {0, 0};
    Version version_[2] = {0, 0};
    /// Every thread has filled its blob; reads start after.
    std::optional<std::barrier<>> filled_;
};

// ---- small-append ----------------------------------------------------------------

/// Concurrent appends: both threads append small records to one shared
/// blob and read each one back at the version its append returned.
class SmallAppend final : public Workload {
  public:
    static constexpr std::uint64_t kChunk = 64 * KiB;
    static constexpr std::uint64_t kRecord = 4 * KiB;
    static constexpr std::uint64_t kMagic = 0x4452434552505041ULL;  // "APPRECRD"
    static constexpr std::uint64_t kHeader = 24;
    /// Appends per client thread and round.
    static constexpr std::uint64_t kAppendsPerThread = 500;

    void setup(const RunContext&, BlobSeerClient& client) override {
        blob_ = client.create(kChunk).id();
        for (auto& v : versions_) {
            v.clear();
        }
        broken_ = false;
    }

    void run(const RunContext& ctx, BlobSeerClient& client, int thread,
             ThreadResult& out) override {
        Caller call(out, ctx.traced);
        Buffer rec(kRecord);
        Buffer got(kRecord);
        auto& mine = versions_[thread];
        for (std::uint64_t seq = 0; seq < kAppendsPerThread; ++seq) {
            make_record(ctx.seed, thread, seq, rec);
            const auto v = call(OpKind::kWrite, [&] { return client.append(blob_, rec); });
            if (!v) {
                // The record may or may not have landed; the final scan
                // cannot tell, so the run is not checkable.
                broken_ = true;
                return;
            }
            out.wrote(kRecord);
            out.unit_done();
            if (!mine.empty() && *v <= mine.back()) {
                call.wrong("append versions not increasing: " + std::to_string(*v) +
                           " after " + std::to_string(mine.back()));
            }
            mine.push_back(*v);
            // Every version appends one record, so version v holds the
            // record at [(v - 1) * kRecord, v * kRecord).
            const std::uint64_t off = (*v - 1) * kRecord;
            const auto n = call(OpKind::kRead, [&] {
                return client.read(blob_, *v, off, MutableBytes(got));
            });
            if (n) {
                out.read(kRecord);
                if (std::memcmp(got.data(), rec.data(), kRecord) != 0) {
                    call.wrong("append read-back of version " + std::to_string(*v) +
                               " returned wrong bytes");
                }
            }
        }
    }

    std::vector<std::string> verify(const RunContext& ctx, BlobSeerClient& client) override {
        std::vector<std::string> errors;
        if (broken_) {
            errors.push_back("an append failed; the final snapshot cannot be checked");
            return errors;
        }
        // Versions: the union of both threads' versions is exactly 1..V.
        std::size_t total = 0;
        std::map<Version, std::pair<int, std::uint64_t>> owner;  // v -> (thread, seq)
        for (int t = 0; t < 2; ++t) {
            for (std::size_t s = 0; s < versions_[t].size(); ++s) {
                owner[versions_[t][s]] = {t, s};
                ++total;
            }
        }
        const Version latest = total;
        if (owner.size() != total ||
            (total > 0 && (owner.begin()->first != 1 || owner.rbegin()->first != latest))) {
            errors.push_back("append versions are not dense 1.." + std::to_string(latest));
            return errors;
        }
        const auto info = client.stat(blob_);
        if (info.version != latest || info.size != latest * kRecord) {
            errors.push_back("latest snapshot is v" + std::to_string(info.version) + " of " +
                             std::to_string(info.size) + " bytes, expected v" +
                             std::to_string(latest));
        }
        // Snapshot sizes: v holds exactly v records.
        for (const auto& s : client.history(blob_, 1, latest)) {
            if (s.size_after != s.version * kRecord || s.offset != (s.version - 1) * kRecord) {
                errors.push_back("snapshot v" + std::to_string(s.version) + " has size " +
                                 std::to_string(s.size_after));
                break;
            }
        }
        // One scan: every record exactly once, in each thread's order.
        Buffer all_bytes(latest * kRecord);
        if (latest > 0) {
            client.read(blob_, latest, 0, MutableBytes(all_bytes));
        }
        Buffer expect(kRecord);
        for (Version v = 1; v <= latest; ++v) {
            const auto [t, seq] = owner[v];
            make_record(ctx.seed, t, seq, expect);
            if (std::memcmp(all_bytes.data() + (v - 1) * kRecord, expect.data(), kRecord) != 0) {
                errors.push_back("final snapshot: record at version " + std::to_string(v) +
                                 " is not thread " + std::to_string(t) + " seq " +
                                 std::to_string(seq));
                break;
            }
        }
        return errors;
    }

    [[nodiscard]] std::uint64_t setup_bytes() const override { return 0; }

  private:
    static void make_record(std::uint64_t seed, int thread, std::uint64_t seq,
                            MutableBytes out) {
        const std::uint64_t tid = static_cast<std::uint64_t>(thread);
        std::memcpy(out.data(), &kMagic, 8);
        std::memcpy(out.data() + 8, &tid, 8);
        std::memcpy(out.data() + 16, &seq, 8);
        fill_stream(stream_key(seed, kRecordLabel, tid, seq), kHeader, out.subspan(kHeader));
    }

    BlobId blob_ = 0;
    std::vector<Version> versions_[2];
    std::atomic<bool> broken_{false};
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "vm-boot") {
        return std::make_unique<VmBoot>();
    }
    if (name == "bulk-rw") {
        return std::make_unique<BulkRw>();
    }
    if (name == "small-append") {
        return std::make_unique<SmallAppend>();
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (vm-boot, bulk-rw, small-append)");
}

}  // namespace perfbench
