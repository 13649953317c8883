// Workload generation, the brute-force answer oracle and the statistics
// helpers of the daemon benchmark.
#include <algorithm>
#include <cmath>
#include <list>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "bench.hpp"
#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "directory/flat_directory.hpp"
#include "reasoner/knowledge_base.hpp"
#include "workload/ontology_gen.hpp"

namespace perfbench {

using namespace sariadne;

const WorkloadSpec* find_workload(const std::string& name) {
    for (const WorkloadSpec& spec : kWorkloads) {
        if (name == spec.name) return &spec;
    }
    return nullptr;
}

Documents make_documents(const WorkloadSpec& spec, std::uint64_t seed) {
    Documents docs;
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = kClassesPerOntology;
    docs.workload = std::make_unique<workload::ServiceWorkload>(
        workload::generate_universe(kOntologies, onto_config, seed));
    docs.services.reserve(spec.services);
    for (std::size_t i = 0; i < spec.services; ++i) {
        docs.services.push_back(docs.workload->service_xml(i));
    }
    // Which services the request documents target, and (for Zipf) which
    // document holds which popularity rank, are both seeded shuffles so
    // popularity is not tied to the generator's index order.
    std::vector<std::uint32_t> order(spec.services);
    std::iota(order.begin(), order.end(), 0U);
    Rng rng(seed ^ 0x5EEDD0C5ULL);
    rng.shuffle(order.begin(), order.end());
    order.resize(spec.request_docs);
    docs.requests.reserve(order.size());
    for (const std::uint32_t service : order) {
        docs.requests.push_back(docs.workload->matching_request_xml(service));
    }
    if (spec.zipf) {
        docs.zipf_cdf.resize(spec.request_docs);
        double total = 0;
        for (std::size_t rank = 0; rank < spec.request_docs; ++rank) {
            total += 1.0 / std::pow(static_cast<double>(rank + 1), 0.99);
            docs.zipf_cdf[rank] = total;
        }
        for (double& value : docs.zipf_cdf) value /= total;
    }
    return docs;
}

void compute_expected(Documents& docs) {
    encoding::KnowledgeBase kb;
    for (const auto& ontology : docs.workload->ontologies()) {
        kb.register_ontology(ontology);
    }
    directory::FlatDirectory flat(kb);
    for (const std::string& service : docs.services) flat.publish_xml(service);
    docs.expected.clear();
    docs.expected.reserve(docs.requests.size());
    for (const std::string& request : docs.requests) {
        const auto resolved =
            desc::resolve_request(desc::parse_request(request), kb);
        directory::MatchStats stats;
        directory::QueryTiming timing;
        Answer answer;
        for (const auto& hits : flat.query(resolved, stats, timing)) {
            for (const auto& hit : hits) {
                answer.emplace_back(hit.service_name, hit.capability_name,
                                    hit.semantic_distance);
            }
        }
        // matching_request_xml guarantees a match; an empty reference
        // would make "unsatisfied" indistinguishable from correct.
        if (answer.empty()) {
            throw std::runtime_error("reference answer is empty");
        }
        std::sort(answer.begin(), answer.end());
        docs.expected.push_back(std::move(answer));
    }
}

OpStream::OpStream(const WorkloadSpec& spec, const Documents& docs,
                   std::uint64_t seed, unsigned lane)
    : spec_(&spec),
      docs_(&docs),
      rng_(seed * 0x9E3779B97F4A7C15ULL + 0x0B5 + lane) {}

Op OpStream::next() {
    Op op;
    op.publish = rng_.chance(spec_->publish_share);
    if (op.publish) {
        op.doc = static_cast<std::uint32_t>(rng_.below(spec_->services));
    } else if (docs_->zipf_cdf.empty()) {
        op.doc = static_cast<std::uint32_t>(rng_.below(spec_->request_docs));
    } else {
        const double u = rng_.uniform();
        const auto it = std::upper_bound(docs_->zipf_cdf.begin(),
                                         docs_->zipf_cdf.end(), u);
        op.doc = static_cast<std::uint32_t>(
            std::min<std::ptrdiff_t>(it - docs_->zipf_cdf.begin(),
                                     docs_->zipf_cdf.size() - 1));
    }
    return op;
}

std::vector<OpStream> lane_streams(const WorkloadSpec& spec,
                                   const Documents& docs, std::uint64_t seed,
                                   unsigned first_lane) {
    std::vector<OpStream> streams;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        streams.emplace_back(spec, docs, seed, first_lane + lane);
    }
    return streams;
}

bool same_answer(const std::vector<ariadne::wire::Hit>& hits,
                 const Answer& expected) {
    if (hits.size() != expected.size()) return false;
    std::vector<std::tuple<std::string_view, std::string_view, int>> got;
    got.reserve(hits.size());
    for (const auto& hit : hits) {
        got.emplace_back(hit.service_name, hit.capability_name,
                         hit.semantic_distance);
    }
    std::sort(got.begin(), got.end());
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::get<0>(got[i]) != std::get<0>(expected[i]) ||
            std::get<1>(got[i]) != std::get<1>(expected[i]) ||
            std::get<2>(got[i]) != std::get<2>(expected[i])) {
            return false;
        }
    }
    return true;
}

std::string describe_mismatch(const std::vector<ariadne::wire::Hit>& hits,
                              const Answer& expected) {
    const auto item = [](std::string_view service, std::string_view capability,
                         int distance) {
        return "(" + std::string(service) + ", " + std::string(capability) +
               ", " + std::to_string(distance) + ")";
    };
    Answer got;
    for (const auto& hit : hits) {
        got.emplace_back(hit.service_name, hit.capability_name,
                         hit.semantic_distance);
    }
    std::sort(got.begin(), got.end());
    std::string text = "got {";
    for (std::size_t i = 0; i < got.size(); ++i) {
        const auto& [service, capability, distance] = got[i];
        text += (i ? " " : "") + item(service, capability, distance);
    }
    text += "} expected {";
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto& [service, capability, distance] = expected[i];
        text += (i ? " " : "") + item(service, capability, distance);
    }
    return text + "}";
}

double memo_window_repeat_share(const WorkloadSpec& spec, const Documents& docs,
                                std::uint64_t seed) {
    // LRU over distinct documents: a request "repeats within the window"
    // when fewer than kMemoWindow other distinct documents were requested
    // since its previous occurrence. Lanes interleave as in the replay.
    constexpr std::size_t kQueries = 200000;
    OpStream lanes[kLanes] = {OpStream(spec, docs, seed, 0),
                              OpStream(spec, docs, seed, 1)};
    std::list<std::uint32_t> lru;
    std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator> where;
    std::size_t queries = 0;
    std::size_t repeats = 0;
    for (std::size_t k = 0; queries < kQueries; ++k) {
        const Op op = lanes[k % kLanes].next();
        if (op.publish) continue;
        ++queries;
        const auto it = where.find(op.doc);
        if (it != where.end()) {
            ++repeats;
            lru.splice(lru.begin(), lru, it->second);
            continue;
        }
        lru.push_front(op.doc);
        where.emplace(op.doc, lru.begin());
        if (lru.size() > kMemoWindow) {
            where.erase(lru.back());
            lru.pop_back();
        }
    }
    return static_cast<double>(repeats) / static_cast<double>(queries);
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quartile_spread(std::vector<double> values) {
    const std::size_t n = values.size();
    if (n < 2) return 0;
    std::sort(values.begin(), values.end());
    // statistics.quantiles(data, n=4), method='exclusive'.
    const auto cut = [&](long i) {
        const long m = static_cast<long>(n) + 1;
        const long j = std::clamp<long>(i * m / 4, 1, static_cast<long>(n) - 1);
        const long delta = i * m - j * 4;
        return (values[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                values[static_cast<std::size_t>(j)] *
                    static_cast<double>(delta)) /
               4.0;
    };
    const double mid = median(values);
    return mid == 0 ? 0 : (cut(3) - cut(1)) / mid;
}

Windowed windowed_percentile(std::vector<Sample> samples, double q) {
    constexpr std::size_t kMinWindowSamples = 1000;
    constexpr std::size_t kMaxWindows = 64;
    Windowed result;
    result.samples = samples.size();
    if (samples.empty()) return result;
    std::sort(samples.begin(), samples.end(),
              [](const Sample& a, const Sample& b) { return a.due_s < b.due_s; });
    result.windows = std::clamp<std::size_t>(
        samples.size() / kMinWindowSamples, 1, kMaxWindows);
    std::vector<double> per_window;
    for (std::size_t w = 0; w < result.windows; ++w) {
        const std::size_t begin = samples.size() * w / result.windows;
        const std::size_t end = samples.size() * (w + 1) / result.windows;
        std::vector<double> values;
        values.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) values.push_back(samples[i].us);
        per_window.push_back(percentile(std::move(values), q));
    }
    result.value = percentile(per_window, 0.25);
    result.spread = quartile_spread(per_window);
    return result;
}

}  // namespace perfbench
