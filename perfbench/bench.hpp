// Shared vocabulary of the daemon benchmark: workload specs, the seeded
// op stream, the generated documents with their brute-force expected
// answers, the daemon child process, the wire client, and the three
// phases (closed loop, open loop, in-process traced replay).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <sys/types.h>

#include "ariadne/wire.hpp"
#include "support/rng.hpp"
#include "workload/service_gen.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// The daemon's default synthetic universe; both sides regenerate it from
// the run's seed.
inline constexpr std::size_t kOntologies = 6;
inline constexpr std::size_t kClassesPerOntology = 24;
// DiscoveryNetwork's request memo holds this many documents; the
// workload-property report measures reuse against a window of this size.
inline constexpr std::size_t kMemoWindow = 512;

struct WorkloadSpec {
    const char* name;
    std::size_t services;      ///< N, fixed for the run (publishes replace)
    std::size_t request_docs;  ///< distinct request documents
    bool zipf;                 ///< Zipf(0.99) over request docs, else uniform
    double publish_share;      ///< share of ops that are publishes
    double open_rate;          ///< open-loop offered load, ops/s (both lanes)
};

/// The three traffic mixes; see perfbench/README.md for why each exists.
inline constexpr WorkloadSpec kWorkloads[] = {
    {"hot_500", 500, 256, false, 0.05, 8000},
    {"zipf_5k", 5000, 5000, true, 0.05, 3000},
    {"churn_5k", 5000, 5000, true, 0.50, 2000},
};

const WorkloadSpec* find_workload(const std::string& name);

/// One expected hit, compared as a set across a reply.
using HitKey = std::tuple<std::string, std::string, int>;
using Answer = std::vector<HitKey>;  ///< sorted

/// Everything generated from (workload, seed) before any timing starts.
struct Documents {
    std::unique_ptr<sariadne::workload::ServiceWorkload> workload;
    std::vector<std::string> services;  ///< N service documents
    std::vector<std::string> requests;  ///< request documents
    std::vector<Answer> expected;       ///< per request document
    std::vector<double> zipf_cdf;       ///< empty when uniform
};

Documents make_documents(const WorkloadSpec& spec, std::uint64_t seed);

/// Brute-force reference answers (FlatDirectory over the same services).
void compute_expected(Documents& docs);

struct Op {
    bool publish = false;
    std::uint32_t doc = 0;  ///< service index (publish) or request doc
};

/// Deterministic op sequence per (seed, lane).
class OpStream {
public:
    OpStream(const WorkloadSpec& spec, const Documents& docs,
             std::uint64_t seed, unsigned lane);
    Op next();

private:
    const WorkloadSpec* spec_;
    const Documents* docs_;
    sariadne::Rng rng_;
};

/// Compares a daemon reply's hits with the expected answer as a set.
bool same_answer(const std::vector<sariadne::ariadne::wire::Hit>& hits,
                 const Answer& expected);
/// "got {...} expected {...}" as (service, capability, distance) sets, for
/// the report of a wrong answer.
std::string describe_mismatch(
    const std::vector<sariadne::ariadne::wire::Hit>& hits,
    const Answer& expected);

// --- statistics -----------------------------------------------------------

double percentile(std::vector<double> values, double q);  ///< nearest rank
double median(std::vector<double> values);
/// (q3 - q1) / median with Python's statistics.quantiles(n=4) method;
/// 0 when fewer than two values.
double quartile_spread(std::vector<double> values);

/// One open-loop latency sample, keyed by when its op was due.
struct Sample {
    double due_s;  ///< since the phase started
    double us;
};

struct Windowed {
    double value = 0;         ///< 25th percentile across windows
    std::size_t windows = 0;
    double spread = 0;        ///< quartile spread across windows
    std::size_t samples = 0;
};

/// Percentile q per window of consecutive due times, reported as the
/// 25th percentile across windows: a pause of the shared host moves the
/// windows it hits, a change to the program moves every window. Windows
/// hold at least 1000 samples (ten beyond a p99); at most 64.
Windowed windowed_percentile(std::vector<Sample> samples, double q);

// --- daemon process and wire client -----------------------------------------

class DaemonProcess {
public:
    DaemonProcess(const std::string& binary, std::uint64_t seed);
    ~DaemonProcess();
    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    std::uint16_t port() const noexcept { return port_; }
    /// Peak resident set (VmHWM) in MiB.
    double peak_rss_mb() const;
    /// CPU time (user + system) the daemon has used so far.
    double cpu_seconds() const;
    /// One GET /metrics, parsed into name -> value.
    std::map<std::string, double> scrape() const;
    /// SIGTERM, then waits; true when the daemon drained and exited 0.
    bool stop();

private:
    pid_t pid_ = -1;
    int out_fd_ = -1;
    std::uint16_t port_ = 0;
    std::uint16_t metrics_port_ = 0;
};

class WireClient {
public:
    explicit WireClient(std::uint16_t port);
    ~WireClient();
    WireClient(const WireClient&) = delete;
    WireClient& operator=(const WireClient&) = delete;

    void stage(const sariadne::ariadne::wire::WireMessage& message);
    /// Writes every staged frame; false when the connection broke.
    bool flush();
    /// Waits up to `timeout` for input, then decodes every complete frame
    /// into `out`. False when the connection broke or a frame was
    /// malformed.
    bool poll_frames(std::vector<sariadne::ariadne::wire::WireMessage>& out,
                     std::chrono::nanoseconds timeout);

private:
    int fd_ = -1;
    std::vector<std::uint8_t> out_;
    std::vector<std::uint8_t> in_;
    std::size_t pos_ = 0;
};

// --- phases -----------------------------------------------------------------

/// Exact accounting: every sent op ends acked, answered, or failed.
struct Tally {
    std::uint64_t sent = 0;
    std::uint64_t acked = 0;     ///< publishes acknowledged
    std::uint64_t answered = 0;  ///< queries answered correctly
    std::uint64_t failed = 0;
    bool aborted = false;  ///< a lane died; its ops are unaccounted
    std::string first_error;
    void fail(std::uint64_t count, const std::string& why) {
        failed += count;
        if (first_error.empty() && count > 0) first_error = why;
    }
    void add(const Tally& other) {
        sent += other.sent;
        acked += other.acked;
        answered += other.answered;
        aborted = aborted || other.aborted;
        if (first_error.empty()) first_error = other.first_error;
        failed += other.failed;
    }
    bool balanced() const {
        return !aborted && sent == acked + answered + failed;
    }
};

struct SetupResult {
    double seconds = 0;
    Tally tally;
};

/// Bulk-publishes every service over one connection and waits for every
/// ack.
SetupResult bulk_publish(std::uint16_t port, const Documents& docs);

struct LoopResult {
    Tally tally;
    std::vector<double> slice_rates; ///< closed loop: ops/s per 100 ms slice
    std::vector<Sample> query_us;    ///< open loop: from due time
    std::vector<Sample> publish_us;
    std::vector<Sample> late_us;     ///< open loop: send time - due time
    double compute_us_sum = 0;       ///< reply compute_ms, as µs
    std::uint64_t compute_samples = 0;
    std::uint64_t completed = 0;
};

inline constexpr unsigned kLanes = 2;  ///< sending threads, one socket each

// CPU placement on the 4-core reference host: the daemon's reactor and
// each sending lane get a core of their own, so which threads share a
// core does not change from run to run. Skipped where the core is absent.
inline constexpr unsigned kDaemonCpu = 1;
inline constexpr unsigned kFirstLaneCpu = 2;
/// Pins a process (pid != 0) or the calling thread (pid == 0).
void pin_to_cpu(pid_t pid, unsigned cpu);

/// One op stream per lane; the streams continue across rounds.
std::vector<OpStream> lane_streams(const WorkloadSpec& spec,
                                   const Documents& docs, std::uint64_t seed,
                                   unsigned first_lane);

/// One round of the saturating closed loop (kLanes connections, a fixed
/// window in flight on each), appended to `into`.
void closed_loop(std::uint16_t port, const Documents& docs,
                 std::vector<OpStream>& streams, double seconds,
                 LoopResult& into);
/// One round of the fixed-rate open loop, appended to `into`; sample
/// times count from `epoch`.
void open_loop(std::uint16_t port, const WorkloadSpec& spec,
               const Documents& docs, std::vector<OpStream>& streams,
               double seconds, Clock::time_point epoch, LoopResult& into);

/// Named per-layer values produced by the traced replay.
using LayerMetrics = std::map<std::string, double>;

struct ReplayResult {
    LayerMetrics metrics;
    Tally tally;
    double per_op_us = 0;  ///< in-process decode + handle + encode per op
    /// Per-op µs each layer accounts for, for the cost ladder.
    std::vector<std::pair<std::string, double>> ladder;
};

ReplayResult traced_replay(const WorkloadSpec& spec, const Documents& docs,
                           std::uint64_t seed, double seconds,
                           const std::string& spans_path);

/// directory.query_us and quick rejects in-process at N in {500, 5k, 50k}.
LayerMetrics size_axis(const Documents& docs, std::uint64_t seed);

/// Share of request documents that repeat within the last kMemoWindow
/// distinct documents, over a long prefix of the op stream.
double memo_window_repeat_share(const WorkloadSpec& spec, const Documents& docs,
                                std::uint64_t seed);

}  // namespace perfbench
