// perfbench_gen — the daemon benchmark's generator. Generates one
// workload from its seed, computes every request document's reference
// answer by brute force, starts sariadne_daemon (several times, to time
// set-up), drives it over loopback TCP from two sending threads with one
// connection each, checks every answer, and — with --trace 1 — replays the
// same op stream in-process with one span per layer call. Prints one JSON
// object on its last stdout line; perfbench/run.py turns it into the
// benchmark's report.
//
// Usage:
//   perfbench_gen --daemon PATH --workload NAME --seed S --seconds T
//                 --trace 0|1 [--spans FILE]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <sys/utsname.h>
#include <unistd.h>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Args {
    std::string daemon;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
};

/// Set-ups per run: at least kMinSetups and until kSetupBudgetS has been
/// spent (small directories set up in milliseconds, where one daemon
/// start's jitter would dominate); setup_s reports their median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 40;
constexpr double kSetupBudgetS = 1.0;

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

/// One end-to-end metric: its value is the median over `repeats`
/// within-run repeats (set-ups, throughput slices or latency windows)
/// whose quartile spread is `spread`; `samples` counts the raw
/// observations behind them.
struct Metric {
    std::string name;
    double value;
    const char* unit;
    std::size_t samples;
    std::size_t repeats;
    double spread;
};

Metric windowed(const char* name, const std::vector<Sample>& samples,
                double q) {
    const Windowed w = windowed_percentile(samples, q);
    return Metric{name, w.value, "us", w.samples, w.windows, w.spread};
}

double counter_delta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
}

int run(const Args& args) {
    const WorkloadSpec* spec = find_workload(args.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "perfbench_gen: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    Documents docs = make_documents(*spec, args.seed);
    compute_expected(docs);

    // Time budget: the closed loop gives ops_s, the open loop the
    // latencies; a traced run shortens both to make room for the replay.
    // The loops alternate in rounds, so a stretch of interference from the
    // shared host lands on both instead of on one loop entirely.
    const int rounds = args.trace ? 2 : 10;
    const double closed_s = args.seconds * (args.trace ? 0.3 : 0.5) / rounds;
    const double open_s = args.seconds * (args.trace ? 0.2 : 0.5) / rounds;
    const double replay_s = args.seconds * 0.3;

    Tally tally;
    std::vector<double> setup_s;
    std::unique_ptr<DaemonProcess> daemon;
    const int min_setups = args.trace ? 1 : kMinSetups;
    const double budget_s = args.trace ? 0 : kSetupBudgetS;
    bool drained = true;
    double spent_s = 0;
    for (int i = 0; i < kMaxSetups && (i < min_setups || spent_s < budget_s);
         ++i) {
        if (daemon) drained = daemon->stop() && drained;
        const auto started = Clock::now();
        daemon = std::make_unique<DaemonProcess>(args.daemon, args.seed);
        const SetupResult setup = bulk_publish(daemon->port(), docs);
        setup_s.push_back(
            std::chrono::duration<double>(Clock::now() - started).count());
        spent_s += setup_s.back();
        tally.add(setup.tally);
    }

    const auto before = daemon->scrape();
    const auto epoch = Clock::now();
    std::vector<OpStream> closed_streams = lane_streams(*spec, docs, args.seed, 0);
    std::vector<OpStream> open_streams =
        lane_streams(*spec, docs, args.seed, kLanes);
    LoopResult closed;
    LoopResult open;
    double closed_cpu_s = 0;
    double closed_wall_s = 0;
    for (int round = 0; round < rounds; ++round) {
        const double cpu_before = daemon->cpu_seconds();
        const auto wall_before = Clock::now();
        closed_loop(daemon->port(), docs, closed_streams, closed_s, closed);
        closed_cpu_s += daemon->cpu_seconds() - cpu_before;
        closed_wall_s +=
            std::chrono::duration<double>(Clock::now() - wall_before).count();
        open_loop(daemon->port(), *spec, docs, open_streams, open_s, epoch,
                  open);
    }
    const auto after = daemon->scrape();
    tally.add(closed.tally);
    tally.add(open.tally);
    const double rss_mb = daemon->peak_rss_mb();
    const double shed = counter_delta(
        {}, after, "sariadne_transport_backpressure_drops_total");
    drained = daemon->stop() && drained;
    daemon.reset();

    const double ok_frac =
        tally.sent == 0 ? 0.0
                        : static_cast<double>(tally.sent - tally.failed) /
                              static_cast<double>(tally.sent);
    // Interference from the shared host only ever slows a slice or window
    // down, while a change to the program moves all of them: the fastest
    // tenth of the slices and the quieter quartile of the latency windows
    // are the most reproducible estimates of the program's own cost.
    const double ops_s = percentile(closed.slice_rates, 0.90);
    std::vector<Metric> e2e = {
        {"setup_s", median(setup_s), "s", setup_s.size(), setup_s.size(),
         quartile_spread(setup_s)},
        {"ops_s", ops_s, "1/s", closed.completed, closed.slice_rates.size(),
         quartile_spread(closed.slice_rates)},
        windowed("query_p50_us", open.query_us, 0.50),
        windowed("query_p99_us", open.query_us, 0.99),
        windowed("publish_p50_us", open.publish_us, 0.50),
        windowed("publish_p99_us", open.publish_us, 0.99),
        {"ok_frac", ok_frac, "ratio", tally.sent, 1, 0},
        {"daemon_rss_mb", rss_mb, "MiB", 1, 1, 0},
    };

    LayerMetrics layers;
    std::vector<std::pair<std::string, double>> ladder;
    // The ladder splits the closed loop's mean time per op, the same
    // averaging the replay's spans get.
    const double mean_rate =
        closed.slice_rates.empty()
            ? 0.0
            : std::accumulate(closed.slice_rates.begin(),
                              closed.slice_rates.end(), 0.0) /
                  static_cast<double>(closed.slice_rates.size());
    const double per_op_us = mean_rate > 0 ? 1e6 / mean_rate : 0;
    const double loop_ops =
        std::max<double>(1, closed.completed + open.completed);
    // Near 1 when the daemon is the closed loop's bottleneck, which
    // net.residual_us_per_op assumes.
    layers["daemon.cpu_util_closed"] =
        closed_wall_s > 0 ? closed_cpu_s / closed_wall_s : 0;
    layers["loadgen.late_p99_us"] =
        windowed_percentile(open.late_us, 0.99).value;
    layers["workload.distinct_requests"] =
        static_cast<double>(spec->request_docs);
    layers["workload.memo_window_repeat_share"] =
        memo_window_repeat_share(*spec, docs, args.seed);
    if (args.trace) {
        ReplayResult replay =
            traced_replay(*spec, docs, args.seed, replay_s, args.spans);
        tally.add(replay.tally);
        layers.insert(replay.metrics.begin(), replay.metrics.end());
        const LayerMetrics sizes = size_axis(docs, args.seed);
        layers.insert(sizes.begin(), sizes.end());

        const auto delta = [&](const char* name) {
            return counter_delta(before, after, name);
        };
        layers["net.frames_per_op"] =
            (delta("sariadne_transport_frames_received_total") +
             delta("sariadne_transport_frames_sent_total")) /
            loop_ops;
        layers["net.bytes_per_op"] =
            (delta("sariadne_transport_bytes_received_total") +
             delta("sariadne_transport_bytes_sent_total")) /
            loop_ops;
        layers["net.residual_us_per_op"] = per_op_us - replay.per_op_us;
        layers["ariadne.protocol.reported_compute_us"] =
            closed.compute_samples == 0
                ? 0.0
                : closed.compute_us_sum /
                      static_cast<double>(closed.compute_samples);
        // The daemon's own view of its directory over the closed loop.
        const double queries = std::max(
            1.0, delta("sariadne_directory_query_match_ms_count"));
        layers["daemon.query_match_us"] =
            1000.0 * delta("sariadne_directory_query_match_ms_sum") / queries;
        const double publishes = std::max(
            1.0, delta("sariadne_directory_publish_insert_ms_count"));
        layers["daemon.publish_insert_us"] =
            1000.0 * delta("sariadne_directory_publish_insert_ms_sum") /
            publishes;

        ladder = replay.ladder;
        ladder.emplace_back("net (residual: reactor, syscalls, loopback)",
                            layers["net.residual_us_per_op"]);
        const char* share_names[] = {"share.wire", "share.protocol_self",
                                     "share.description", "share.directory",
                                     "share.net_residual"};
        for (std::size_t i = 0; i < ladder.size(); ++i) {
            layers[share_names[i]] =
                per_op_us > 0 ? ladder[i].second / per_op_us : 0;
        }
    }

    const bool correct = tally.balanced() && tally.failed == 0 &&
                         shed == 0 && drained;
    std::string error = tally.first_error;
    if (!tally.balanced()) {
        error = "accounting mismatch (" + error + ")";
    } else if (shed != 0) {
        error = "daemon shed replies";
    } else if (!drained) {
        error = "daemon did not drain and exit 0";
    }

    utsname host{};
    ::uname(&host);
    std::ostringstream out;
    out << "{\"workload\": " << json_string(spec->name)
        << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << tally.sent << ", \"failed\": " << tally.failed
        << ", \"acked\": " << tally.acked << ", \"answered\": " << tally.answered
        << ", \"error\": " << json_string(error)
        << ", \"host\": " << json_string(host.nodename)
        << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"open_rate\": " << json_number(spec->open_rate)
        << ", \"closed_s\": " << json_number(closed_s)
        << ", \"open_s\": " << json_number(open_s) << ", \"e2e\": {";
    for (std::size_t i = 0; i < e2e.size(); ++i) {
        const Metric& m = e2e[i];
        out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
            << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
            << ", \"samples\": " << m.samples
            << ", \"repeats\": " << m.repeats
            << ", \"spread\": " << json_number(m.spread) << "}";
    }
    out << "}, \"layers\": {";
    bool first = true;
    for (const auto& [name, value] : layers) {
        out << (first ? "" : ", ") << json_string(name) << ": "
            << json_number(value);
        first = false;
    }
    out << "}, \"ladder\": [";
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        out << (i ? ", " : "") << "[" << json_string(ladder[i].first) << ", "
            << json_number(ladder[i].second) << "]";
    }
    out << "], \"per_op_us\": " << json_number(per_op_us) << "}";
    std::printf("%s\n", out.str().c_str());
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--daemon") {
            args.daemon = value;
        } else if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            args.trace = std::strcmp(value, "0") != 0;
        } else if (flag == "--spans") {
            args.spans = value;
        } else {
            std::fprintf(stderr, "perfbench_gen: unknown flag %s\n",
                         flag.c_str());
            return 2;
        }
    }
    if (args.daemon.empty() || args.workload.empty() || args.seconds <= 0) {
        std::fprintf(stderr,
                     "usage: perfbench_gen --daemon PATH --workload NAME "
                     "--seed S --seconds T --trace 0|1 [--spans FILE]\n");
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_gen: %s\n", error.what());
        return 1;
    }
}
