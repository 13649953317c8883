// The daemon child process, the wire client and the two networked
// phases: the saturating closed loop and the fixed-rate open loop.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

using namespace sariadne;
namespace wire = ariadne::wire;

namespace {

int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        throw std::runtime_error("cannot connect to 127.0.0.1:" +
                                 std::to_string(port));
    }
    return fd;
}

/// Reads one '\n'-terminated line from the daemon's stdout pipe, waiting
/// at most `timeout_ms` overall.
bool read_line(int fd, std::string& line, int timeout_ms) {
    line.clear();
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - Clock::now())
                              .count();
        if (left <= 0) return false;
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
        char c = 0;
        const ssize_t got = ::read(fd, &c, 1);
        if (got <= 0) return false;
        if (c == '\n') return true;
        line.push_back(c);
    }
}

std::uint16_t port_after(const std::string& line, const char* marker) {
    const auto at = line.find(marker);
    if (at == std::string::npos) return 0;
    return static_cast<std::uint16_t>(
        std::strtoul(line.c_str() + at + std::strlen(marker), nullptr, 10));
}

}  // namespace

void pin_to_cpu(pid_t pid, unsigned cpu) {
    if (cpu >= static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN))) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (pid == 0) {
        (void)::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
    } else {
        (void)::sched_setaffinity(pid, sizeof(set), &set);
    }
}

DaemonProcess::DaemonProcess(const std::string& binary, std::uint64_t seed) {
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
        throw std::runtime_error("pipe() failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
    const std::string seed_text = std::to_string(seed);
    const std::string universe = std::to_string(kOntologies);
    const std::string classes = std::to_string(kClassesPerOntology);
    std::vector<std::string> args = {binary,         "--port",     "0",
                                     "--metrics-port", "0",        "--seed",
                                     seed_text,      "--universe", universe,
                                     "--classes",    classes};
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    out_fd_ = pipe_fds[0];
    if (rc != 0) {
        ::close(out_fd_);
        throw std::runtime_error("cannot start " + binary);
    }
    pin_to_cpu(pid_, kDaemonCpu);
    std::string line;
    while ((port_ == 0 || metrics_port_ == 0) &&
           read_line(out_fd_, line, 20000)) {
        if (port_ == 0) port_ = port_after(line, "listening on 127.0.0.1:");
        if (metrics_port_ == 0) {
            metrics_port_ = port_after(line, "metrics on 127.0.0.1:");
        }
    }
    if (port_ == 0 || metrics_port_ == 0) {
        stop();
        throw std::runtime_error("daemon did not report its ports");
    }
}

DaemonProcess::~DaemonProcess() { stop(); }

double DaemonProcess::peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0;
            status >> kib;
            return kib / 1024.0;
        }
        std::string rest;
        std::getline(status, rest);
    }
    return 0;
}

double DaemonProcess::cpu_seconds() const {
    std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
    std::string text;
    std::getline(stat, text);
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    const auto close = text.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::map<std::string, double> DaemonProcess::scrape() const {
    const int fd = connect_loopback(metrics_port_);
    const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
    (void)!::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL);
    std::string body;
    char chunk[65536];
    for (;;) {
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) break;
        body.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(fd);
    std::map<std::string, double> values;
    const auto header_end = body.find("\r\n\r\n");
    std::istringstream lines(
        body.substr(header_end == std::string::npos ? 0 : header_end + 4));
    std::string line;
    while (std::getline(lines, line)) {
        const auto space = line.rfind(' ');
        if (line.empty() || line[0] == '#' || space == std::string::npos) {
            continue;
        }
        values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                    nullptr);
    }
    return values;
}

bool DaemonProcess::stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline) {
        // Keep the stdout pipe drained so the exit summary cannot block.
        char sink[4096];
        pollfd pfd{out_fd_, POLLIN, 0};
        if (::poll(&pfd, 1, 20) > 0) (void)!::read(out_fd_, sink, sizeof(sink));
    }
    if (done == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    return done != 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

WireClient::WireClient(std::uint16_t port) : fd_(connect_loopback(port)) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

WireClient::~WireClient() {
    if (fd_ >= 0) ::close(fd_);
}

void WireClient::stage(const wire::WireMessage& message) {
    const std::vector<std::uint8_t> body = wire::encode(message);
    const auto len = static_cast<std::uint32_t>(body.size());
    for (int shift = 0; shift < 32; shift += 8) {
        out_.push_back(static_cast<std::uint8_t>((len >> shift) & 0xFF));
    }
    out_.insert(out_.end(), body.begin(), body.end());
}

bool WireClient::flush() {
    std::size_t off = 0;
    while (off < out_.size()) {
        const ssize_t sent =
            ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(sent);
    }
    out_.clear();
    return true;
}

bool WireClient::poll_frames(std::vector<wire::WireMessage>& out,
                             std::chrono::nanoseconds timeout) {
    if (timeout.count() < 0) timeout = std::chrono::nanoseconds(0);
    pollfd pfd{fd_, POLLIN, 0};
    const timespec wait{
        static_cast<time_t>(timeout.count() / 1000000000),
        static_cast<long>(timeout.count() % 1000000000)};
    const int ready = ::ppoll(&pfd, 1, &wait, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    std::uint8_t chunk[1 << 16];
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (got == 0) return false;
    if (got < 0) return errno == EAGAIN || errno == EINTR;
    if (pos_ > 0) {
        in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    in_.insert(in_.end(), chunk, chunk + got);
    while (in_.size() - pos_ >= 4) {
        std::uint32_t len = 0;
        for (int i = 3; i >= 0; --i) len = (len << 8) | in_[pos_ + i];
        if (in_.size() - pos_ - 4 < len) break;
        auto decoded = wire::try_decode({in_.data() + pos_ + 4, len});
        pos_ += 4 + len;
        if (!decoded) return false;
        out.push_back(std::move(decoded).value());
    }
    return true;
}

namespace {

struct Pending {
    Clock::time_point due;
    Op op;
};

/// Settles one reply against the op it answers. Returns the op when the
/// reply completed one, nullopt for traffic that completes nothing.
std::optional<Pending> settle(const wire::WireMessage& reply,
                              std::unordered_map<std::uint64_t, Pending>& inflight,
                              const Documents& docs, Tally& tally,
                              LoopResult* loop) {
    std::uint64_t id = 0;
    if (reply.type == wire::MsgType::kPubAck) {
        id = std::get<wire::PubAck>(reply.payload).pub_id;
    } else if (reply.type == wire::MsgType::kPubNack) {
        id = std::get<wire::PubNack>(reply.payload).pub_id;
    } else if (reply.type == wire::MsgType::kResponse) {
        id = std::get<wire::Response>(reply.payload).request_id;
    } else {
        return std::nullopt;  // dir-adv / summary traffic
    }
    const auto it = inflight.find(id);
    if (it == inflight.end()) return std::nullopt;
    const Pending pending = it->second;
    inflight.erase(it);
    if (reply.type == wire::MsgType::kPubAck) {
        if (pending.op.publish) {
            ++tally.acked;
        } else {
            tally.fail(1, "pub-ack answered a query");
        }
    } else if (reply.type == wire::MsgType::kPubNack) {
        tally.fail(1, "publish was nacked");
    } else {
        const auto& response = std::get<wire::Response>(reply.payload);
        if (pending.op.publish) {
            tally.fail(1, "response answered a publish");
        } else if (!response.satisfied) {
            tally.fail(1, "reply said unsatisfied");
        } else if (!same_answer(response.hits, docs.expected[pending.op.doc])) {
            tally.fail(1, "reply differs from the reference answer for "
                          "request document " +
                              std::to_string(pending.op.doc) + ": " +
                              describe_mismatch(
                                  response.hits,
                                  docs.expected[pending.op.doc]));
        } else {
            ++tally.answered;
        }
        if (loop != nullptr) {
            loop->compute_us_sum += response.compute_ms * 1000.0;
            ++loop->compute_samples;
        }
    }
    return pending;
}

wire::WireMessage op_message(const Op& op, std::uint64_t id,
                             const Documents& docs) {
    wire::WireMessage message;
    if (op.publish) {
        message.type = wire::MsgType::kPublish;
        message.payload = wire::PublishDoc{docs.services[op.doc], id};
    } else {
        // `client` is rewritten by the daemon to the connection's node.
        message.type = wire::MsgType::kRequest;
        message.payload = wire::Request{id, 0, docs.requests[op.doc]};
    }
    return message;
}

constexpr auto kDrainTimeout = std::chrono::seconds(5);
constexpr auto kSlice = std::chrono::milliseconds(100);
// Each round of a loop starts on a fresh connection; its first slice is
// not measured.
constexpr auto kWarmup = kSlice;
constexpr std::size_t kClosedWindow = 64;  ///< in flight per lane

double us_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

/// Appends `part`'s samples and counts to `into`; slices concatenate.
void append(LoopResult& into, const LoopResult& part) {
    into.tally.add(part.tally);
    const auto concat = [](auto& to, const auto& from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    concat(into.slice_rates, part.slice_rates);
    concat(into.query_us, part.query_us);
    concat(into.publish_us, part.publish_us);
    concat(into.late_us, part.late_us);
    into.compute_us_sum += part.compute_us_sum;
    into.compute_samples += part.compute_samples;
    into.completed += part.completed;
}

/// Runs `lane_body` on kLanes threads and merges their results.
template <typename Body>
LoopResult run_lanes(Body lane_body) {
    LoopResult lanes[kLanes];
    std::vector<std::thread> threads;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        threads.emplace_back([&, lane] {
            pin_to_cpu(0, kFirstLaneCpu + lane);
            try {
                lane_body(lane, lanes[lane]);
            } catch (const std::exception& error) {
                lanes[lane].tally.aborted = true;
                lanes[lane].tally.first_error = error.what();
            }
        });
    }
    for (auto& thread : threads) thread.join();
    LoopResult total;
    for (auto& lane : lanes) {
        // Lanes share one timeline: their slice counts add up.
        if (total.slice_rates.size() < lane.slice_rates.size()) {
            total.slice_rates.resize(lane.slice_rates.size(), 0);
        }
        for (std::size_t i = 0; i < lane.slice_rates.size(); ++i) {
            total.slice_rates[i] += lane.slice_rates[i];
        }
        lane.slice_rates.clear();
        append(total, lane);
    }
    return total;
}

std::uint64_t lane_id_base(unsigned lane) {
    return (static_cast<std::uint64_t>(lane) + 1) << 40;
}

}  // namespace

SetupResult bulk_publish(std::uint16_t port, const Documents& docs) {
    constexpr std::size_t kWindow = 256;
    SetupResult result;
    const auto started = Clock::now();
    WireClient client(port);
    std::unordered_map<std::uint64_t, Pending> inflight;
    std::vector<wire::WireMessage> replies;
    std::size_t next = 0;
    auto last_progress = Clock::now();
    while (next < docs.services.size() || !inflight.empty()) {
        while (next < docs.services.size() && inflight.size() < kWindow) {
            const Op op{true, static_cast<std::uint32_t>(next)};
            const std::uint64_t id = next + 1;
            client.stage(op_message(op, id, docs));
            inflight.emplace(id, Pending{Clock::now(), op});
            ++result.tally.sent;
            ++next;
        }
        replies.clear();
        const bool alive =
            client.flush() &&
            client.poll_frames(replies, std::chrono::milliseconds(100));
        for (const auto& reply : replies) {
            if (settle(reply, inflight, docs, result.tally, nullptr)) {
                last_progress = Clock::now();
            }
        }
        if (!alive || Clock::now() - last_progress > kDrainTimeout) {
            result.tally.fail(inflight.size(),
                              alive ? "publish got no ack" : "connection broke");
            break;
        }
    }
    result.seconds =
        std::chrono::duration<double>(Clock::now() - started).count();
    return result;
}

void closed_loop(std::uint16_t port, const Documents& docs,
                 std::vector<OpStream>& streams, double seconds,
                 LoopResult& into) {
    const auto started = Clock::now();
    const auto deadline =
        started + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
    const auto slices = static_cast<std::size_t>(
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds)) /
        kSlice);
    LoopResult round = run_lanes([&](unsigned lane, LoopResult& out) {
        WireClient client(port);
        OpStream& stream = streams[lane];
        std::unordered_map<std::uint64_t, Pending> inflight;
        std::vector<wire::WireMessage> replies;
        std::vector<std::uint64_t> done(slices, 0);
        std::uint64_t seq = 0;
        for (;;) {
            const auto now = Clock::now();
            const bool sending = now < deadline;
            if (!sending && inflight.empty()) break;
            if (sending) {
                while (inflight.size() < kClosedWindow) {
                    const Op op = stream.next();
                    const std::uint64_t id = lane_id_base(lane) | ++seq;
                    client.stage(op_message(op, id, docs));
                    inflight.emplace(id, Pending{now, op});
                    ++out.tally.sent;
                }
            }
            replies.clear();
            const bool alive =
                client.flush() &&
                client.poll_frames(replies, std::chrono::milliseconds(100));
            const auto got_at = Clock::now();
            for (const auto& reply : replies) {
                if (!settle(reply, inflight, docs, out.tally, &out)) continue;
                ++out.completed;
                const auto slice =
                    static_cast<std::size_t>((got_at - started) / kSlice);
                if (slice < done.size()) ++done[slice];
            }
            if (!alive) {
                out.tally.fail(inflight.size(), "connection broke");
                break;
            }
            if (got_at > deadline + kDrainTimeout) {
                out.tally.fail(inflight.size(), "no reply arrived");
                break;
            }
        }
        // Rounds too short for a warm-up slice (tiny --seconds) keep all.
        const std::size_t first =
            done.size() > 2 ? static_cast<std::size_t>(kWarmup / kSlice) : 0;
        const double per_slice_s =
            std::chrono::duration<double>(kSlice).count();
        for (std::size_t i = first; i < done.size(); ++i) {
            out.slice_rates.push_back(static_cast<double>(done[i]) /
                                      per_slice_s);
        }
    });
    append(into, round);
}

void open_loop(std::uint16_t port, const WorkloadSpec& spec,
               const Documents& docs, std::vector<OpStream>& streams,
               double seconds, Clock::time_point epoch, LoopResult& into) {
    const auto started = Clock::now();
    const auto deadline =
        started + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
    // Each lane offers half the rate on a fixed grid; the lanes' grids
    // are offset by half a period so arrivals interleave evenly.
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kLanes / spec.open_rate));
    append(into, run_lanes([&](unsigned lane, LoopResult& out) {
        // Wake-ups land on the schedule, not 50 µs behind it.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        WireClient client(port);
        OpStream& stream = streams[lane];
        std::unordered_map<std::uint64_t, Pending> inflight;
        std::vector<wire::WireMessage> replies;
        std::uint64_t seq = 0;
        auto next_due = started + period * lane / kLanes;
        for (;;) {
            auto now = Clock::now();
            while (next_due <= now && next_due < deadline) {
                const Op op = stream.next();
                const std::uint64_t id = lane_id_base(lane) | ++seq;
                client.stage(op_message(op, id, docs));
                inflight.emplace(id, Pending{next_due, op});
                ++out.tally.sent;
                if (next_due - started >= kWarmup) {
                    out.late_us.push_back(
                        Sample{seconds_between(epoch, next_due),
                               us_between(next_due, now)});
                }
                next_due += period;
            }
            const bool sending = next_due < deadline;
            if (!sending && inflight.empty()) break;
            replies.clear();
            const auto wait = sending ? next_due - now
                                      : Clock::duration(std::chrono::milliseconds(100));
            const bool alive = client.flush() && client.poll_frames(replies, wait);
            now = Clock::now();
            for (const auto& reply : replies) {
                const auto pending = settle(reply, inflight, docs, out.tally, &out);
                if (!pending) continue;
                ++out.completed;
                if (pending->due - started < kWarmup) continue;
                (pending->op.publish ? out.publish_us : out.query_us)
                    .push_back(Sample{seconds_between(epoch, pending->due),
                                      us_between(pending->due, now)});
            }
            if (!alive) {
                out.tally.fail(inflight.size(), "connection broke");
                break;
            }
            if (now > deadline + kDrainTimeout) {
                out.tally.fail(inflight.size(), "no reply arrived");
                break;
            }
        }
    }));
}

}  // namespace perfbench
