#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

}  // namespace

Daemon::Daemon(const std::string& serverd, std::filesystem::path root)
    : root_(std::move(root)) {
    std::filesystem::create_directories(root_);
    const std::filesystem::path log = root_.string() + ".log";
    std::vector<std::string> args = {serverd,     "--port",      "0",
                                     "--bind",    "127.0.0.1",   "--store",
                                     "log",       "--disk-root", root_.string()};
    std::vector<char*> argv;
    for (auto& a : args) {
        argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        throw std::runtime_error("cannot create " + log.string());
    }
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
        ::close(fd);
        throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
        // Only async-signal-safe calls until exec.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != parent) {
            ::_exit(127);
        }
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(fd);

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    const std::string marker = "listening on 127.0.0.1:";
    while (port_ == 0) {
        const std::string text = slurp(log);
        if (const auto at = text.find(marker); at != std::string::npos) {
            port_ = static_cast<std::uint16_t>(
                std::stoul(text.substr(at + marker.size())));
            break;
        }
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("blobseer_serverd exited during start-up: " + text);
        }
        if (std::chrono::steady_clock::now() > deadline) {
            stop();
            throw std::runtime_error("blobseer_serverd did not report its port");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
}

Daemon::~Daemon() {
    try {
        stop();
    } catch (const std::exception&) {
        // Reaped either way; a failed shutdown was already reported by
        // an explicit stop() on the normal path.
    }
}

void Daemon::stop() {
    if (pid_ <= 0) {
        return;
    }
    const pid_t pid = pid_;
    pid_ = -1;
    ::kill(pid, SIGTERM);
    int status = 0;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (::waitpid(pid, &status, WNOHANG) != pid) {
        if (std::chrono::steady_clock::now() > deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            throw std::runtime_error("blobseer_serverd ignored SIGTERM and was killed");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("blobseer_serverd shut down with status " +
                                 std::to_string(status));
    }
}

std::uint64_t dir_bytes(const std::filesystem::path& dir) {
    std::uint64_t total = 0;
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
        std::error_code ec;
        if (e.is_regular_file(ec)) {
            const auto n = e.file_size(ec);
            if (!ec) {
                total += n;
            }
        }
    }
    return total;
}

AnonPeakSampler::AnonPeakSampler(pid_t pid) : pid_(pid) {
    sample();
    thread_ = std::thread([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            sample();
        }
    });
}

AnonPeakSampler::~AnonPeakSampler() { (void)stop(); }

std::uint64_t AnonPeakSampler::stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
        thread_.join();
        sample();
    }
    return peak_kib_.load(std::memory_order_relaxed);
}

void AnonPeakSampler::sample() noexcept {
    char path[64];
    std::snprintf(path, sizeof path, "/proc/%d/status", static_cast<int>(pid_));
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("RssAnon:", 0) == 0) {
            const std::uint64_t kib = std::strtoull(line.c_str() + 8, nullptr, 10);
            if (kib > peak_kib_.load(std::memory_order_relaxed)) {
                peak_kib_.store(kib, std::memory_order_relaxed);
            }
            return;
        }
    }
}

}  // namespace perfbench
