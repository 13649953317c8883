// The traced in-process replay: the closed loop's op stream driven
// through each layer's public functions, one span per call, plus the
// directory size axis and the sampled matching kernel.
//
// The protocol rung is a DiscoveryNetwork over a SimTransport that takes
// each op at the directory node the way the daemon's reactor hands it a
// decoded frame and captures the reply (ServerSideTransport below); the
// `ariadne.protocol.handle` span is bracketed by the wire bridge's decode
// and encode spans, as the daemon frames them. The handler's children
// cannot be entered from outside src/, so a second pass feeds twins the
// same ops in the same order: the protocol's own request memo
// (DiscoveryNetwork::prepared_request on a second network, so the memo's
// real policy decides when parse + resolve run) and
// SemanticDirectory::query_prepared on a twin directory for queries;
// desc::parse_service and SemanticDirectory::publish for publishes. Child
// spans carry the handle span as their parent, so a layer's self time is
// its span minus its children's, as if they had been nested.
#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "ariadne/protocol.hpp"
#include "ariadne/wire_bridge.hpp"
#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "directory/semantic_directory.hpp"
#include "matching/match.hpp"
#include "matching/oracles.hpp"
#include "net/sim_transport.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "reasoner/knowledge_base.hpp"

namespace perfbench {

using namespace sariadne;
namespace wire = ariadne::wire;

namespace {

enum Layer : std::uint8_t {
    kOp,
    kDecode,
    kHandle,
    kEncode,
    kPrepare,
    kQuery,
    kParseService,
    kPublish,
    kParseRequest,
    kResolve,
    kLayerCount,
};

constexpr const char* kLayerNames[kLayerCount] = {
    "op",
    "ariadne.wire.decode",
    "ariadne.protocol.handle",
    "ariadne.wire.encode",
    "ariadne.protocol.prepare",
    "directory.query",
    "description.parse_service",
    "directory.publish",
    "description.parse_request",
    "description.resolve",
};

constexpr std::uint32_t kRoot = 0xFFFFFFFFU;

struct Span {
    std::uint32_t op;
    std::uint32_t parent;  ///< index of the parent span, kRoot for an op
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
};

/// In-memory span recorder; spans are written out only at the end.
class Tracer {
public:
    Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 20); }

    std::uint32_t open(std::uint32_t op, std::uint32_t parent, Layer layer) {
        spans_.push_back(Span{op, parent, layer, now_ns(), 0});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }
    void close(std::uint32_t span) { spans_[span].end_ns = now_ns(); }

    template <typename Fn>
    std::uint32_t timed(std::uint32_t op, std::uint32_t parent, Layer layer,
                        Fn&& fn) {
        const std::uint32_t span = open(op, parent, layer);
        fn();
        close(span);
        return span;
    }

    const std::vector<Span>& spans() const { return spans_; }

    void write(const std::string& path) const {
        std::ofstream out(path);
        out << "span,op,parent,layer,start_ns,end_ns\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << i << ',' << s.op << ','
                << (s.parent == kRoot ? -1 : static_cast<long long>(s.parent))
                << ',' << kLayerNames[s.layer] << ',' << s.start_ns << ','
                << s.end_ns << '\n';
        }
    }

private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

void register_universe(encoding::KnowledgeBase& kb, const Documents& docs) {
    for (const auto& ontology : docs.workload->ontologies()) {
        kb.register_ontology(ontology);
    }
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Virtual ms each op is given on the simulator: covers the hop from the
/// client and the compute-time hold before the reply.
constexpr double kRoundTripMs = 500;

/// SimTransport for the directory's side of the daemon: an op enters at
/// node 0 as the reactor delivers a decoded frame, and whatever node 0
/// sends back to the client is captured (replies) or dropped (summary
/// broadcasts) instead of delivered, so the handle span holds the
/// server's work and no client-side protocol.
class ServerSideTransport final : public ariadne::Transport {
public:
    static constexpr net::NodeId kClient = 1;

    std::vector<net::Message> replies;

    void deliver(net::Message message) {
        inner_.unicast(kClient, 0, std::move(message));
    }

    void set_delivery_handler(DeliveryHandler handler) override {
        inner_.set_delivery_handler(std::move(handler));
    }
    void set_metrics(obs::MetricsRegistry* registry) override {
        inner_.set_metrics(registry);
    }
    void unicast(net::NodeId from, net::NodeId to, net::Message msg) override {
        if (from == 0 && to == kClient) {
            replies.push_back(std::move(msg));
            return;
        }
        inner_.unicast(from, to, std::move(msg));
    }
    void broadcast(net::NodeId from, std::uint32_t ttl_hops,
                   net::Message msg) override {
        // The directory's summary pushes reach only the client, which the
        // daemon's peers ignore; processing them is client-side work.
        if (from == 0) return;
        inner_.broadcast(from, ttl_hops, std::move(msg));
    }
    net::SimTime now() const override { return inner_.now(); }
    void schedule(net::SimTime delay_ms,
                  std::function<void()> action) override {
        inner_.schedule(delay_ms, std::move(action));
    }
    void run_for(net::SimTime duration_ms) override {
        inner_.run_for(duration_ms);
    }
    bool idle() const override { return inner_.idle(); }
    std::size_t node_count() const override { return inner_.node_count(); }
    bool is_up(net::NodeId node) const override { return inner_.is_up(node); }
    std::vector<int> hop_distances(net::NodeId from) const override {
        return inner_.hop_distances(from);
    }
    bool is_infrastructure(net::NodeId node) const override {
        return inner_.is_infrastructure(node);
    }
    std::size_t degree(net::NodeId node) const override {
        return inner_.degree(node);
    }
    const net::TrafficStats& stats() const override { return inner_.stats(); }

private:
    ariadne::SimTransport inner_{net::Topology::grid(2, 1)};
};

}  // namespace

ReplayResult traced_replay(const WorkloadSpec& spec, const Documents& docs,
                           std::uint64_t seed, double seconds,
                           const std::string& spans_path) {
    // The daemon has stopped by now; its core runs the replay, so both
    // sides of net.residual_us_per_op are measured on the same core.
    pin_to_cpu(0, kDaemonCpu);
    encoding::KnowledgeBase kb;
    register_universe(kb, docs);

    // The daemon's setup: node 0 appointed directory, metrics attached.
    // Requests enter at node 0 as the daemon's reactor hands them over;
    // replies to the client are captured, not delivered.
    obs::MetricsRegistry registry;
    auto owned_transport = std::make_unique<ServerSideTransport>();
    ServerSideTransport& transport = *owned_transport;
    ariadne::DiscoveryNetwork network(std::move(owned_transport), {}, kb,
                                      &registry);
    network.appoint_directory(0);
    ariadne::DiscoveryNetwork memo_twin(net::Topology::grid(2, 1), {}, kb);
    memo_twin.appoint_directory(0);
    directory::SemanticDirectory twin(kb);

    // Client-side frame for an op, exactly as the generator sends it.
    const auto frame_for = [&](const Op& op, std::uint64_t wire_id) {
        wire::WireMessage in;
        if (op.publish) {
            in.type = wire::MsgType::kPublish;
            in.payload = wire::PublishDoc{docs.services[op.doc], wire_id};
        } else {
            in.type = wire::MsgType::kRequest;
            in.payload = wire::Request{wire_id, ServerSideTransport::kClient,
                                       docs.requests[op.doc]};
        }
        return wire::encode(in);
    };
    const auto decode = [](const std::vector<std::uint8_t>& frame) {
        auto message = ariadne::wirebridge::try_decode_message(frame);
        if (!message) throw std::runtime_error("replay: frame did not decode");
        return std::move(message).value();
    };
    const auto serve = [&](net::Message message) {
        transport.deliver(std::move(message));
        network.run_for(kRoundTripMs);
    };
    for (std::uint32_t i = 0; i < docs.services.size(); ++i) {
        serve(decode(frame_for(Op{true, i}, i + 1)));
        twin.publish_xml(docs.services[i]);
    }
    if (transport.replies.size() != docs.services.size()) {
        throw std::runtime_error("replay: bulk publish was not acknowledged");
    }

    ReplayResult result;
    Tracer tracer;
    directory::QueryResult scratch;
    std::uint64_t queries = 0;
    directory::MatchStats stats;
    std::uint64_t hits_returned = 0;
    OpStream lanes[kLanes] = {OpStream(spec, docs, seed, 0),
                              OpStream(spec, docs, seed, 1)};
    // Two passes over the same ops, so neither instance's working set
    // evicts the other's between calls: the protocol rung first, then the
    // handler's children on the twins. Half the budget goes to each.
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds / 2));
    constexpr std::uint32_t kMaxOps = 200000;
    std::vector<Op> ops;
    std::vector<std::uint32_t> handle_spans;
    for (std::uint32_t op_id = 0;
         op_id < kMaxOps && (op_id % 64 != 0 || Clock::now() < deadline);
         ++op_id) {
        const Op op = lanes[op_id % kLanes].next();
        const std::vector<std::uint8_t> frame = frame_for(op, op_id + 1);
        ++result.tally.sent;
        transport.replies.clear();

        const std::uint32_t root = tracer.open(op_id, kRoot, kOp);
        std::optional<net::Message> message;
        tracer.timed(op_id, root, kDecode,
                     [&] { message.emplace(decode(frame)); });
        const std::uint32_t handle_span = tracer.timed(
            op_id, root, kHandle, [&] { serve(std::move(*message)); });
        if (transport.replies.size() != 1) {
            throw std::runtime_error("replay: expected exactly one reply");
        }
        std::optional<Result<std::vector<std::uint8_t>>> bytes;
        tracer.timed(op_id, root, kEncode, [&] {
            bytes.emplace(
                ariadne::wirebridge::encode_message(transport.replies.front()));
        });
        tracer.close(root);

        // Check the reply as the generator checks the daemon's.
        auto reply = *bytes ? wire::try_decode(bytes->value())
                            : Result<wire::WireMessage>(bytes->error());
        if (!reply) {
            result.tally.fail(1, "replay: reply did not encode");
        } else if (op.publish) {
            if (reply.value().type == wire::MsgType::kPubAck) {
                ++result.tally.acked;
            } else {
                result.tally.fail(1, "replay: publish was not acknowledged");
            }
        } else if (reply.value().type == wire::MsgType::kResponse &&
                   std::get<wire::Response>(reply.value().payload).satisfied &&
                   same_answer(
                       std::get<wire::Response>(reply.value().payload).hits,
                       docs.expected[op.doc])) {
            ++result.tally.answered;
        } else {
            result.tally.fail(1,
                              "replay: answer differs from the reference for "
                              "request document " +
                                  std::to_string(op.doc));
        }
        ops.push_back(op);
        handle_spans.push_back(handle_span);
    }

    // The handler's children, on the twins.
    for (std::uint32_t op_id = 0; op_id < ops.size(); ++op_id) {
        const Op op = ops[op_id];
        const std::uint32_t handle_span = handle_spans[op_id];
        if (op.publish) {
            desc::ServiceDescription description;
            tracer.timed(op_id, handle_span, kParseService, [&] {
                description = desc::parse_service(docs.services[op.doc]);
            });
            tracer.timed(op_id, handle_span, kPublish,
                         [&] { twin.publish(std::move(description)); });
        } else {
            const std::string& document = docs.requests[op.doc];
            const ariadne::DiscoveryNetwork::PreparedRequest* prepared = nullptr;
            const std::uint32_t prepare = tracer.timed(op_id, handle_span, kPrepare, [&] {
                prepared = &memo_twin.prepared_request(document);
            });
            tracer.timed(op_id, handle_span, kQuery, [&] {
                twin.query_prepared(prepared->request, prepared->resolved, {},
                                    scratch);
            });
            stats.capability_matches += scratch.stats.capability_matches;
            stats.quick_rejects += scratch.stats.quick_rejects;
            stats.dags_visited += scratch.stats.dags_visited;
            for (const auto& hits : scratch.per_capability) {
                hits_returned += hits.size();
            }
            // What a memo miss pays, per call; sampled so the replay
            // covers more of the stream.
            if (queries % 4 == 0) {
                desc::ServiceRequest parsed;
                tracer.timed(op_id, prepare, kParseRequest, [&] {
                    parsed = desc::parse_request(document);
                });
                tracer.timed(op_id, prepare, kResolve, [&] {
                    const auto resolved = desc::resolve_request(parsed, kb);
                    if (resolved.empty()) {
                        throw std::runtime_error("replay: empty resolution");
                    }
                });
            }
            ++queries;
        }
    }
    const auto op_count = static_cast<double>(ops.size());

    // Reduce: totals and per-call samples by layer, children by parent.
    std::int64_t total_ns[kLayerCount] = {};
    std::uint64_t calls[kLayerCount] = {};
    std::vector<double> query_samples;
    std::int64_t child_ns = 0;
    const auto& spans = tracer.spans();
    for (const Span& span : spans) {
        const std::int64_t ns = span.end_ns - span.start_ns;
        total_ns[span.layer] += ns;
        ++calls[span.layer];
        if (span.layer == kQuery) query_samples.push_back(us(ns));
        if (span.parent != kRoot && spans[span.parent].layer == kHandle) {
            child_ns += ns;
        }
    }
    const auto per_op = [&](Layer layer) {
        return ops.empty() ? 0.0 : us(total_ns[layer]) / op_count;
    };
    const auto per_call = [&](Layer layer) {
        return calls[layer] == 0 ? 0.0 : us(total_ns[layer]) / calls[layer];
    };
    LayerMetrics& m = result.metrics;
    m["ariadne.wire.decode_us"] = per_op(kDecode);
    m["ariadne.wire.encode_us"] = per_op(kEncode);
    m["ariadne.protocol.handle_us"] = per_op(kHandle);
    m["ariadne.protocol.self_us"] =
        per_op(kHandle) - (ops.empty() ? 0.0 : us(child_ns) / op_count);
    m["ariadne.protocol.prepare_us"] = per_call(kPrepare);
    m["description.parse_request_us"] = per_call(kParseRequest);
    m["description.resolve_us"] = per_call(kResolve);
    m["description.parse_service_us"] = per_call(kParseService);
    m["directory.publish_us"] = per_call(kPublish);
    m["directory.query_us.mean"] = per_call(kQuery);
    m["directory.query_us.p50"] = percentile(query_samples, 0.50);
    m["directory.query_us.p99"] = percentile(query_samples, 0.99);
    const double q = std::max<double>(1, static_cast<double>(queries));
    m["directory.capability_matches_per_query"] =
        static_cast<double>(stats.capability_matches) / q;
    m["directory.quick_rejects_per_query"] =
        static_cast<double>(stats.quick_rejects) / q;
    m["directory.dags_visited_per_query"] =
        static_cast<double>(stats.dags_visited) / q;
    m["directory.match_yield"] =
        stats.capability_matches == 0
            ? 0.0
            : static_cast<double>(hits_returned) /
                  static_cast<double>(stats.capability_matches);
    m["replay.ops"] = op_count;
    result.per_op_us = per_op(kDecode) + per_op(kHandle) + per_op(kEncode);
    result.ladder = {
        {"ariadne.wire (decode+encode)", per_op(kDecode) + per_op(kEncode)},
        {"ariadne.protocol self", m["ariadne.protocol.self_us"]},
        {"description (query prepare + publish parse)",
         per_op(kPrepare) + per_op(kParseService)},
        {"directory (query + publish)", per_op(kQuery) + per_op(kPublish)},
    };

    // The matching kernel alone, on (provided, required) pairs sampled
    // from the replayed workload: batches of calls per clock pair so the
    // clock's own cost stays out of a ~0.05 µs call.
    {
        matching::EncodedOracle oracle(kb);
        Rng rng(seed ^ 0x3A7C4ULL);
        std::vector<desc::ResolvedCapability> provided;
        std::vector<desc::ResolvedCapability> required;
        for (int i = 0; i < 256; ++i) {
            for (auto& cap : desc::resolve_provided(
                     desc::parse_service(
                         docs.services[rng.below(docs.services.size())]),
                     kb)) {
                provided.push_back(std::move(cap));
            }
            for (auto& cap : desc::resolve_request(
                     desc::parse_request(
                         docs.requests[rng.below(docs.requests.size())]),
                     kb)) {
                required.push_back(std::move(cap));
            }
        }
        constexpr int kBatch = 64;
        std::vector<double> batch_us;
        std::uint64_t matched = 0;
        for (int round = 0; round < 2000; ++round) {
            const auto started = Clock::now();
            for (int i = 0; i < kBatch; ++i) {
                const auto outcome = matching::match_capability(
                    provided[(round * 7 + i) % provided.size()],
                    required[(round + i * 13) % required.size()], oracle);
                matched += outcome.matched ? 1 : 0;
            }
            batch_us.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - started)
                    .count() /
                kBatch);
        }
        m["matching.match_us.p50"] = percentile(batch_us, 0.50);
        m["matching.match_us.p99"] = percentile(batch_us, 0.99);
        m["matching.sampled_match_share"] =
            static_cast<double>(matched) / (2000.0 * kBatch);
    }

    // The cost of one span: two clock reads.
    {
        constexpr int kReads = 100000;
        const auto started = Clock::now();
        for (int i = 0; i < kReads; ++i) (void)Clock::now();
        m["trace.clock_read_us"] =
            std::chrono::duration<double, std::micro>(Clock::now() - started)
                .count() /
            kReads;
    }

    if (!spans_path.empty()) tracer.write(spans_path);
    return result;
}

LayerMetrics size_axis(const Documents& docs, std::uint64_t seed) {
    constexpr std::size_t kSizes[] = {500, 5000, 50000};
    constexpr std::size_t kQueries = 1000;
    LayerMetrics m;
    encoding::KnowledgeBase kb;
    register_universe(kb, docs);
    const workload::ServiceWorkload& services = *docs.workload;
    for (const std::size_t n : kSizes) {
        directory::SemanticDirectory directory(kb);
        std::vector<desc::ServiceDescription> batch;
        batch.reserve(n);
        for (std::size_t i = 0; i < n; ++i) batch.push_back(services.service(i));
        directory.publish_batch(std::move(batch));
        Rng rng(seed ^ (0x512EULL + n));
        std::vector<desc::ServiceRequest> requests;
        std::vector<std::vector<desc::ResolvedCapability>> resolved;
        for (std::size_t k = 0; k < kQueries; ++k) {
            requests.push_back(services.matching_request(rng.below(n)));
            resolved.push_back(desc::resolve_request(requests.back(), kb));
        }
        directory::QueryResult out;
        std::vector<double> samples;
        std::uint64_t quick_rejects = 0;
        for (std::size_t k = 0; k < kQueries; ++k) {
            const auto started = Clock::now();
            directory.query_prepared(requests[k], resolved[k], {}, out);
            samples.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - started)
                    .count());
            if (!out.fully_satisfied()) {
                throw std::runtime_error("size axis: query unsatisfied");
            }
            quick_rejects += out.stats.quick_rejects;
        }
        const std::string prefix = "size." + std::to_string(n) + ".";
        m[prefix + "directory.query_us.p50"] = percentile(samples, 0.50);
        m[prefix + "directory.query_us.p99"] = percentile(samples, 0.99);
        m[prefix + "directory.quick_rejects_per_query"] =
            static_cast<double>(quick_rejects) / kQueries;
    }
    return m;
}

}  // namespace perfbench
