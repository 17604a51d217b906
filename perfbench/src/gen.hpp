/// \file gen.hpp
/// \brief Seeded content generator and random streams of the benchmark.
///
/// Every byte a workload writes is a pure function of (seed, stream,
/// offset), so any range can be regenerated to check a read without
/// keeping a copy of what was written. Offsets and lengths are multiples
/// of 8: each 8-byte word is one splitmix64 output.

#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace perfbench {

[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Key of one content stream: the run seed plus up to three labels
/// (workload tag, thread, round...).
[[nodiscard]] inline std::uint64_t stream_key(std::uint64_t seed,
                                              std::uint64_t a,
                                              std::uint64_t b = 0,
                                              std::uint64_t c = 0) noexcept {
    return mix64(mix64(mix64(seed ^ 0x5eedULL) ^ a) ^ b) ^ c;
}

/// Fill \p out with the stream's bytes at [offset, offset + out.size()).
inline void fill_stream(std::uint64_t key, std::uint64_t offset,
                 std::span<std::uint8_t> out) noexcept {
    const std::uint64_t first = offset / 8;
    for (std::size_t i = 0; i < out.size() / 8; ++i) {
        const std::uint64_t w = mix64(key ^ ((first + i) * 0xd6e8feb86659fd93ULL));
        std::memcpy(out.data() + i * 8, &w, 8);
    }
}

/// Index of the first byte of \p got that differs from the stream, or
/// -1 when the whole range matches.
[[nodiscard]] inline long long first_mismatch(std::uint64_t key,
                                        std::uint64_t offset,
                                        std::span<const std::uint8_t> got) noexcept {
    const std::uint64_t first = offset / 8;
    for (std::size_t i = 0; i < got.size() / 8; ++i) {
        const std::uint64_t w = mix64(key ^ ((first + i) * 0xd6e8feb86659fd93ULL));
        if (std::memcmp(got.data() + i * 8, &w, 8) != 0) {
            return static_cast<long long>(i * 8);
        }
    }
    return -1;
}

/// Small deterministic random stream (one per client thread).
class Rng {
  public:
    explicit Rng(std::uint64_t key) noexcept : state_(key) {}
    std::uint64_t next() noexcept { return mix64(state_++); }
    /// Uniform in [0, n).
    std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

  private:
    std::uint64_t state_;
};

}  // namespace perfbench
