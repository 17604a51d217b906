/// \file daemon.hpp
/// \brief A blobseer_serverd child process owned by the benchmark.

#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>

namespace perfbench {

/// Starts `blobseer_serverd --store log` on an ephemeral loopback port
/// with its disk root at \p root, and waits until it prints its port.
/// The destructor stops it (SIGTERM, then SIGKILL after a grace period)
/// and reaps it. The child also gets SIGTERM if the benchmark dies.
class Daemon {
  public:
    Daemon(const std::string& serverd, std::filesystem::path root);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    [[nodiscard]] pid_t pid() const noexcept { return pid_; }
    [[nodiscard]] const std::filesystem::path& root() const noexcept {
        return root_;
    }
    /// Stop and reap the child; idempotent. Throws if it had to be killed
    /// or exited with a failure status.
    void stop();

  private:
    std::filesystem::path root_;
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

/// Sum of the sizes of the regular files under \p dir.
[[nodiscard]] std::uint64_t dir_bytes(const std::filesystem::path& dir);

/// Samples a process's anonymous resident memory (`RssAnon` of
/// /proc/<pid>/status) every few milliseconds and keeps the peak. A round
/// samples over a fixed amount of work, so the peak depends on the work
/// done, not on how fast it was done.
class AnonPeakSampler {
  public:
    explicit AnonPeakSampler(pid_t pid);
    ~AnonPeakSampler();
    AnonPeakSampler(const AnonPeakSampler&) = delete;
    AnonPeakSampler& operator=(const AnonPeakSampler&) = delete;

    /// Stop sampling and return the peak in KiB.
    std::uint64_t stop();

  private:
    void sample() noexcept;

    pid_t pid_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> peak_kib_{0};
    std::thread thread_;
};

}  // namespace perfbench
