// dnswild benchmark: runs one workload through the program's public
// entry points, times those calls, checks the outputs, and prints one JSON
// line with every metric it measured.
//
//   perfbench --workload study-chaos|campaign --seed N --seconds S
//             --trace 0|1 [--resolvers N] [--work-dir DIR] [--trace-out FILE]
//
// run.py builds this binary, runs it in a fresh process per run (so the
// peak RSS belongs to one workload), attaches the units BENCHMARK.json
// declares, compares the output digest with the pinned references and
// prints the final result line. README.md explains the workloads and which
// layer metric should move which end-to-end one.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/store.h"
#include "cluster/distance.h"
#include "core/casestudies.h"
#include "core/modifications.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "dns/message.h"
#include "http/html.h"
#include "net/ip.h"
#include "obs/prefix_telemetry.h"
#include "scan/domain_scan.h"
#include "scan/encoding.h"
#include "scan/event_core.h"
#include "scan/ipv4scan.h"
#include "scan/permute.h"
#include "tracer.h"
#include "util/hash.h"
#include "util/strings.h"
#include "worldgen/worldgen.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace dnswild;

// ---- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  std::uint32_t resolvers;
  bool chaos;     // EXPERIMENTS.md chaos profile + retrying clients
  bool campaign;  // weekly enumeration campaign instead of the Fig. 3 chain
};

constexpr Workload kWorkloads[] = {
    {"study-chaos", 10000, true, false},
    {"campaign", 50000, false, true},
};

constexpr std::uint32_t kCampaignEpochs = 4;

// World builds after each timed iteration: the next iteration's world plus
// spares. A process's first builds run on a cold heap and take up to twice
// as long as later ones, so set-up is sampled only once an iteration has
// run, spread over the same stretch of the run as wall_s.
constexpr int kBuildsPerIteration = 5;

worldgen::WorldGenConfig world_config(const Workload& workload,
                                      std::uint32_t resolvers,
                                      std::uint64_t seed) {
  worldgen::WorldGenConfig config;
  config.seed = seed;
  config.resolver_count = resolvers;
  if (workload.chaos) {
    auto& chaos = config.chaos;
    chaos.enabled = true;
    chaos.network_fraction = 0.25;
    chaos.episode_rate = 0.3;
    chaos.episode_mean_buckets = 4.0;
    chaos.bucket_minutes = 30;
    chaos.burst_loss = 0.2;
    chaos.base_loss = 0.02;
    chaos.rate_limit_per_minute = 60;
    chaos.rate_limit_burst = 24;
    chaos.rate_limit_refused = true;
    chaos.truncate_rate = 0.04;
    chaos.corrupt_rate = 0.04;
    chaos.slow_episode_rate = 0.1;
    chaos.unreachable_episode_rate = 0.05;
  }
  return config;
}

scan::RetryPolicy retry_policy(const Workload& workload) {
  if (!workload.chaos) return {};
  return scan::RetryPolicy{.attempts = 3, .timeout_ms = 2000};
}

// ---- measurement helpers --------------------------------------------------

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long total_pages = 0;
  long resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

// Keeps unit-cost loop results observable so the work is not elided.
volatile std::uint64_t g_sink = 0;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Host speed probe. On a shared host, other tenants slow every core by up
// to 2x for minutes at a time, and the timed work with it. The probe is a
// fixed piece of work that belongs to the benchmark, not the program: one
// thread per core walks a 16 MiB random cycle of dependent loads, hashing
// as it goes. End-to-end times are scaled by kReferenceProbeSeconds over
// the probe's time next to them, so they read as on a host where the probe
// takes kReferenceProbeSeconds: a change to the program moves them, the
// host's drift much less.
constexpr double kReferenceProbeSeconds = 0.125;

// Fastest of three probe passes, in seconds.
double probe_seconds() {
  constexpr std::uint32_t kSlots = 1u << 22;
  constexpr std::uint32_t kSteps = 1u << 20;
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> cycle(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) cycle[i] = i;
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(cycle[i], cycle[(state >> 33) % i]);
    }
    return cycle;
  }();
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  double fastest = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto start = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([t] {
        std::uint32_t at = t * (kSlots / 8);
        std::uint64_t hash = 0;
        for (std::uint32_t step = 0; step < kSteps; ++step) {
          at = next[at];
          hash = (hash ^ at) * 1099511628211ULL;
        }
        g_sink = g_sink + hash;
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double seconds = seconds_since(start);
    if (pass == 0 || seconds < fastest) fastest = seconds;
  }
  return fastest;
}

// Calls `body` (which handles `items` items) until `min_seconds` passed;
// returns nanoseconds per item.
double ns_per_item(std::uint64_t items, double min_seconds,
                   const std::function<void()>& body) {
  if (items == 0) return 0.0;
  std::uint64_t rounds = 0;
  const auto start = Clock::now();
  do {
    body();
    ++rounds;
  } while (seconds_since(start) < min_seconds);
  return seconds_since(start) * 1e9 / static_cast<double>(rounds * items);
}

double span_seconds(const obs::Snapshot& snapshot, std::string_view name) {
  const obs::SpanRecord* span = snapshot.find_span(name);
  return span == nullptr ? 0.0 : span->wall_ms / 1000.0;
}

std::uint64_t fault_hits(const obs::Snapshot& snapshot) {
  std::uint64_t hits = 0;
  for (const auto& counter : snapshot.counters) {
    if (counter.name.rfind("fault.", 0) == 0) hits += counter.value;
  }
  return hits;
}

// Metric name -> value. run.py attaches the units BENCHMARK.json declares
// and reports 0 for a layer metric a workload does not produce.
using Metrics = std::map<std::string, double>;

// ---- world construction ---------------------------------------------------

// The workload's world(s): one for `study-chaos`, two for `campaign`
// (the fresh campaign's and the resuming process's).
struct Setup {
  std::vector<worldgen::GeneratedWorld> worlds;
  double seconds = 0;
};

Setup build_worlds(const Workload& workload, std::uint32_t resolvers,
                   std::uint64_t seed, Tracer* tracer) {
  Setup setup;
  const auto start = Clock::now();
  const int count = workload.campaign ? 2 : 1;
  for (int i = 0; i < count; ++i) {
    Scope span(tracer, "worldgen::generate_world", "worldgen");
    setup.worlds.push_back(
        worldgen::generate_world(world_config(workload, resolvers, seed)));
  }
  setup.seconds = seconds_since(start);
  return setup;
}

scan::Ipv4ScanConfig enumeration_config(const Workload& workload,
                                        const worldgen::GeneratedWorld& gen,
                                        std::uint64_t seed) {
  scan::Ipv4ScanConfig config;
  config.scanner_ip = gen.scanner_ip;
  config.zone = gen.scan_zone;
  config.blacklist = &gen.blacklist;
  config.seed = seed;
  config.retry = retry_policy(workload);
  return config;
}

// ---- the Fig. 3 chain (study-chaos) ---------------------------------------

struct StudyRun {
  double wall_s = 0;
  double cpu_s = 0;
  double enumeration_s = 0;
  double rss_enumeration_mb = 0;
  int pipeline_span = -1;
  scan::Ipv4ScanSummary enumeration;
  core::StudyReport report;
};

StudyRun run_study(const Workload& workload, worldgen::GeneratedWorld& gen,
                   std::uint64_t seed, Tracer* tracer) {
  StudyRun run;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  {
    Scope span(tracer, "scan::Ipv4Scanner::scan", "scan");
    scan::Ipv4Scanner scanner(*gen.world,
                              enumeration_config(workload, gen, seed));
    run.enumeration = scanner.scan(gen.universe);
  }
  run.enumeration_s = seconds_since(start);
  if (tracer != nullptr) run.rss_enumeration_mb = current_rss_mb();
  {
    Scope span(tracer, "core::Pipeline::run", "core");
    run.pipeline_span = span.id();
    core::PipelineConfig config;
    config.scanner_ip = gen.scanner_ip;
    config.vantage_ip = gen.vantage_ip;
    config.seed = seed;
    config.domain_scan_retry = retry_policy(workload);
    config.acquisition_retry = retry_policy(workload);
    core::Pipeline pipeline(*gen.world, *gen.registry, config);
    run.report = pipeline.run(run.enumeration.noerror_targets, gen.domains);
  }
  run.wall_s = seconds_since(start);
  run.cpu_s = cpu_seconds() - cpu_start;
  return run;
}

// The benchmark's only reader of StudyReport::records: bytes held by the
// tuple records (vector storage plus each record's answer sets).
std::uint64_t records_bytes(const core::StudyReport& report) {
  std::uint64_t bytes = report.records.capacity() * sizeof(scan::TupleRecord);
  for (const scan::TupleRecord& record : report.records) {
    bytes += (record.ips.capacity() + record.second_ips.capacity()) *
             sizeof(net::Ipv4);
  }
  return bytes;
}

// Digest of the rendered study tables; pinned per workload and seed.
std::uint64_t study_digest(const core::StudyReport& report) {
  std::uint64_t hash = kFnvBasis;
  hash = fnv1a(hash, core::render_prefilter(report));
  hash = fnv1a(hash, core::render_classification(report));
  hash = fnv1a(hash, core::render_table5(report));
  hash = fnv1a(hash, core::render_censorship(report));
  hash = fnv1a(hash, core::render_case_studies(report));
  hash = fnv1a(hash, core::render_modifications(report));
  return hash;
}

// Conservation checks made from outside the program.
std::vector<std::string> check_study(const StudyRun& run) {
  std::vector<std::string> failures;
  const core::StudyReport& report = run.report;
  const core::PrefilterStats& stats = report.prefilter_stats;
  if (stats.legitimate + stats.no_answer + stats.unknown + stats.unresponsive !=
      stats.tuples) {
    failures.push_back("prefilter buckets do not sum to the tuple count");
  }
  if (stats.tuples != report.resolvers.size() * report.domains.size()) {
    failures.push_back("tuple count is not resolvers x domains");
  }
  const obs::SpanRecord* scan_span =
      report.metrics.find_span("stage.domain_scan");
  if (scan_span == nullptr ||
      scan_span->items_out != static_cast<std::int64_t>(stats.tuples)) {
    failures.push_back("domain-scan output differs from prefilter input");
  }
  if (report.classification.tuples.size() != stats.unknown) {
    failures.push_back("classified tuples differ from unknown verdicts");
  }
  if (report.resolvers.size() != run.enumeration.noerror) {
    failures.push_back("study population differs from enumerated NOERROR");
  }
  return failures;
}

// The program's own span records (pipeline.run and its stage.* children)
// become children of the benchmark's Pipeline::run span. Records carry a
// duration but no start, so siblings are laid end to end from their
// parent's start, in open order.
void attach_program_spans(Tracer& tracer, int parent,
                          const obs::Snapshot& snapshot) {
  const auto layer_of = [](const std::string& name) -> std::string {
    if (name == "stage.scan" || name == "stage.domain_scan") return "scan";
    if (name == "stage.acquisition") return "http";
    if (name == "stage.clustering" || name == "stage.labeling") {
      return "cluster";
    }
    return "core";
  };
  std::map<std::uint64_t, int> span_of_seq;
  std::map<int, double> next_start;
  for (const obs::SpanRecord& record : snapshot.spans) {
    int owner = -1;
    if (record.name == "pipeline.run") {
      owner = parent;
    } else if (auto it = span_of_seq.find(record.parent);
               it != span_of_seq.end()) {
      owner = it->second;
    } else {
      continue;
    }
    const SpanRec up = tracer.spans()[owner];
    const double start =
        next_start.count(owner) != 0 ? next_start[owner] : up.start_us;
    const double end = std::min(start + record.wall_ms * 1000.0, up.end_us);
    next_start[owner] = end;
    span_of_seq[record.seq] = tracer.add(
        SpanRec{record.name, layer_of(record.name), start, end, owner});
  }
}

// ---- the weekly campaign --------------------------------------------------

struct CampaignRun {
  double wall_s = 0;
  double cpu_s = 0;
  double epochs_s = 0;
  double resume_s = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t store_bytes = 0;
  campaign::CampaignResult fresh;
  campaign::CampaignResult resumed;
};

campaign::CampaignTargets targets_of(const worldgen::GeneratedWorld& gen) {
  campaign::CampaignTargets targets;
  targets.scanner_ip = gen.scanner_ip;
  targets.zone = gen.scan_zone;
  targets.blacklist = &gen.blacklist;
  targets.universe = gen.universe;
  return targets;
}

campaign::CampaignConfig campaign_config(const std::string& store_dir,
                                         std::uint64_t seed) {
  campaign::CampaignConfig config;
  config.store_dir = store_dir;
  config.epochs = kCampaignEpochs;
  config.seed = seed;
  config.delta = true;
  return config;
}

// Four weekly epochs into a fresh store, then a resume from that store on
// the second, freshly built world.
CampaignRun run_campaign(Setup& setup, std::uint64_t seed,
                         const std::string& store_dir, Tracer* tracer) {
  fs::remove_all(store_dir);
  fs::create_directories(store_dir);
  CampaignRun run;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  {
    Scope span(tracer, "campaign::CampaignEngine::run", "campaign");
    campaign::CampaignEngine engine(*setup.worlds[0].world,
                                    targets_of(setup.worlds[0]),
                                    campaign_config(store_dir, seed));
    run.config_hash = engine.config_hash();
    run.fresh = engine.run(/*resume=*/false);
  }
  run.epochs_s = seconds_since(start);
  {
    Scope span(tracer, "campaign::CampaignEngine::run(resume)", "campaign");
    const auto resume_start = Clock::now();
    campaign::CampaignEngine engine(*setup.worlds[1].world,
                                    targets_of(setup.worlds[1]),
                                    campaign_config(store_dir, seed));
    run.resumed = engine.run(/*resume=*/true);
    run.resume_s = seconds_since(resume_start);
  }
  run.wall_s = seconds_since(start);
  run.cpu_s = cpu_seconds() - cpu_start;
  for (const auto& entry : fs::directory_iterator(store_dir)) {
    if (entry.is_regular_file()) run.store_bytes += entry.file_size();
  }
  return run;
}

std::vector<std::string> check_campaign(const CampaignRun& run) {
  std::vector<std::string> failures;
  if (run.fresh.epochs.size() != kCampaignEpochs) {
    failures.push_back("campaign ran " +
                       std::to_string(run.fresh.epochs.size()) + " epochs");
  }
  if (run.fresh.summary.delta_epochs != kCampaignEpochs - 1) {
    failures.push_back("campaign ran the wrong number of delta epochs");
  }
  if (run.resumed.resumed_from != kCampaignEpochs) {
    failures.push_back("resume re-ran stored epochs");
  }
  if (!run.fresh.store_issues.empty() || !run.resumed.store_issues.empty()) {
    failures.push_back("the epoch store reported issues");
  }
  for (const campaign::EpochRecord& epoch : run.fresh.epochs) {
    for (const core::StageDegradation& degradation : epoch.degradations) {
      failures.push_back("degraded " + degradation.stage + ": " +
                         degradation.cause);
    }
  }
  if (run.fresh.to_json(true) != run.resumed.to_json(true)) {
    failures.push_back("masked resumed report differs from the fresh one");
  }
  return failures;
}

double campaign_virtual_seconds(const campaign::CampaignResult& result) {
  double total = 0;
  for (const campaign::EpochRecord& epoch : result.epochs) {
    total += epoch.virtual_scan_seconds;
  }
  return total;
}

// ---- unit costs (traced run only) -----------------------------------------

constexpr double kMinLoopSeconds = 0.1;

// A fixed sample of one scan stage's probes, built as that stage builds
// them. `packets` get their payload from the encode loop.
struct ProbeSample {
  std::vector<dns::Message> queries;
  std::vector<net::UdpPacket> packets;
  std::vector<std::uint64_t> keys;  // probe identity, for ProbeTiming
};

// Per-item costs of the layers under one scan stage.
struct ProbeCosts {
  double encode_ns = 0;     // per query
  double send_udp_ns = 0;   // per packet, resolver handling included
  double decode_ns = 0;     // per reply
  double telemetry_ns = 0;  // per probe
  double event_ns = 0;      // per event-core event
};

net::UdpPacket probe_packet(net::Ipv4 src, std::uint16_t src_port,
                            net::Ipv4 dst) {
  net::UdpPacket packet;
  packet.src = src;
  packet.src_port = src_port;
  packet.dst = dst;
  packet.dst_port = 53;
  return packet;
}

// The enumeration's first probes, in its own LFSR order over the routed
// universe (so mostly addresses that never answer), skipping reserved and
// blacklisted addresses, each encoded as Ipv4Scanner encodes it: a hashed
// label prefix and TXID, the target embedded in a scan-zone name.
ProbeSample enumeration_sample(const worldgen::GeneratedWorld& gen,
                               std::uint64_t seed) {
  constexpr std::size_t kSampleProbes = 32768;
  ProbeSample sample;
  scan::UniversePermutation order(gen.universe,
                                  static_cast<std::uint32_t>(seed));
  const std::uint16_t src_port = scan::Ipv4ScanConfig{}.src_port;
  std::string prefix;
  net::Ipv4 target;
  while (sample.packets.size() < kSampleProbes && order.next(target)) {
    if (net::is_reserved(target) || gen.blacklist.contains(target)) continue;
    const std::uint64_t key = util::hash_words({seed, 0, target.value()});
    prefix = "p";
    util::append_hex32(prefix, static_cast<std::uint32_t>(key));
    sample.queries.push_back(dns::Message::make_query(
        static_cast<std::uint16_t>(key >> 32),
        scan::make_probe_name(prefix, target, gen.scan_zone), dns::RType::kA));
    sample.packets.push_back(probe_packet(gen.scanner_ip, src_port, target));
    sample.keys.push_back(key);
  }
  return sample;
}

// The domain scan's probes to the first resolvers the enumeration found,
// times the study names, encoded and addressed as the domain scan does.
ProbeSample domain_sample(const worldgen::GeneratedWorld& gen,
                          const std::vector<net::Ipv4>& resolvers,
                          const std::vector<std::string>& names) {
  ProbeSample sample;
  for (std::uint32_t r = 0; r < resolvers.size(); ++r) {
    for (const std::string& name : names) {
      const auto parsed = dns::Name::parse(name);
      if (!parsed) continue;
      const scan::EncodedQuery encoded =
          scan::encode_resolver_id(r, *parsed, 40000);
      sample.queries.push_back(dns::Message::make_query(
          encoded.txid, encoded.name, dns::RType::kA));
      sample.packets.push_back(
          probe_packet(gen.scanner_ip, encoded.src_port, resolvers[r]));
      sample.keys.push_back(sample.keys.size());
    }
  }
  return sample;
}

obs::RcodeClass rcode_class(const std::vector<std::uint8_t>& wire) {
  if (wire.empty()) return obs::RcodeClass::kOther;
  const auto reply = dns::Message::decode(wire);
  if (!reply) return obs::RcodeClass::kOther;
  switch (reply->header.rcode) {
    case dns::RCode::kNoError: return obs::RcodeClass::kNoError;
    case dns::RCode::kRefused: return obs::RcodeClass::kRefused;
    case dns::RCode::kServFail: return obs::RcodeClass::kServFail;
    case dns::RCode::kNxDomain: return obs::RcodeClass::kNxDomain;
    default: return obs::RcodeClass::kOther;
  }
}

double event_ns(const std::vector<scan::ProbeTiming>& timings,
                std::size_t streams, std::uint32_t steps,
                const scan::RetryPolicy& retry, std::uint64_t seed) {
  scan::EventScanCore core(
      nullptr, scan::EventCoreConfig{65536, 25000.0, 128.0, retry.seeded(seed),
                                     "perfbench.event"});
  const std::uint64_t events = core.run(timings, streams, steps).events;
  return ns_per_item(events, kMinLoopSeconds, [&] {
    g_sink = g_sink + core.run(timings, streams, steps).events;
  });
}

// Encodes, sends (once: a send changes world state), decodes and records
// telemetry for every probe of `sample`, timing each layer's share. The
// telemetry records carry the rcode class each reply actually had.
// `timings` receives each probe's single-send outcome.
ProbeCosts measure_probe_costs(net::World& world, ProbeSample& sample,
                               std::vector<scan::ProbeTiming>& timings,
                               Tracer* tracer) {
  ProbeCosts costs;
  const std::size_t n = sample.packets.size();
  timings.assign(n, scan::ProbeTiming{});
  {
    Scope span(tracer, "dns::Message::encode", "dns");
    costs.encode_ns = ns_per_item(n, kMinLoopSeconds, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        sample.packets[i].payload = sample.queries[i].encode();
        g_sink = g_sink + sample.packets[i].payload.size();
      }
    });
  }
  std::vector<std::vector<std::uint8_t>> replies(n);
  {
    Scope span(tracer, "net::World::send_udp", "net");
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<net::UdpReply> got = world.send_udp(sample.packets[i]);
      timings[i].probe_key = sample.keys[i];
      timings[i].responded = !got.empty();
      if (!got.empty()) {
        timings[i].reply_latency_ms =
            static_cast<std::uint32_t>(got.front().latency_ms);
        replies[i] = std::move(got.front().packet.payload);
      }
    }
    costs.send_udp_ns =
        n == 0 ? 0.0 : seconds_since(start) * 1e9 / static_cast<double>(n);
  }
  std::vector<obs::RcodeClass> classes(n);
  std::size_t answered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    classes[i] = rcode_class(replies[i]);
    if (!replies[i].empty()) ++answered;
  }
  {
    Scope span(tracer, "dns::Message::decode", "dns");
    costs.decode_ns = ns_per_item(answered, kMinLoopSeconds, [&] {
      for (const auto& wire : replies) {
        if (!wire.empty()) {
          g_sink = g_sink + (dns::Message::decode(wire) ? 1 : 0);
        }
      }
    });
  }
  {
    Scope span(tracer, "obs::PrefixBatch::record_probe", "obs");
    obs::PrefixTelemetry telemetry;
    costs.telemetry_ns = ns_per_item(n, kMinLoopSeconds, [&] {
      obs::PrefixBatch batch(telemetry);
      for (std::size_t i = 0; i < n; ++i) {
        batch.record_probe(sample.packets[i].dst.value(), timings[i].responded,
                           classes[i], 0);
      }
    });
  }
  return costs;
}

// The enumeration's costs on its own probes; the event core replays the
// sample's send outcomes, one probe per stream as Ipv4Scanner does.
ProbeCosts measure_enumeration_costs(const Workload& workload,
                                     worldgen::GeneratedWorld& gen,
                                     std::uint64_t seed, Tracer* tracer) {
  ProbeSample sample = enumeration_sample(gen, seed);
  std::vector<scan::ProbeTiming> timings;
  ProbeCosts costs = measure_probe_costs(*gen.world, sample, timings, tracer);
  Scope span(tracer, "scan::EventScanCore::run", "scan");
  costs.event_ns =
      event_ns(timings, timings.size(), 1, retry_policy(workload), seed);
  return costs;
}

// The domain scan's costs on its own probes. Its event-core cost replays
// the ProbeTimings DomainScanner::probe captures for the same sample, with
// the workload's retry ladder, so retry events are in the mix; those
// timings also give the sends per probe.
ProbeCosts measure_domain_costs(const Workload& workload,
                                worldgen::GeneratedWorld& gen,
                                const std::vector<net::Ipv4>& population,
                                std::uint64_t seed, double* sends_per_probe,
                                Tracer* tracer) {
  constexpr std::size_t kSampleResolvers = 256;
  const std::vector<net::Ipv4> resolvers(
      population.begin(),
      population.begin() + static_cast<std::ptrdiff_t>(
                               std::min(kSampleResolvers, population.size())));
  std::vector<std::string> names;
  for (const core::StudyDomain& domain : gen.domains.all()) {
    names.push_back(domain.name);
  }
  names.push_back(gen.domains.ground_truth());

  ProbeSample sample = domain_sample(gen, resolvers, names);
  std::vector<scan::ProbeTiming> timings;
  ProbeCosts costs = measure_probe_costs(*gen.world, sample, timings, tracer);

  scan::DomainScanConfig config;
  config.scanner_ip = gen.scanner_ip;
  config.seed = seed ^ 0xd05ca9ULL;
  config.retry = retry_policy(workload);
  const auto steps = static_cast<std::uint32_t>(names.size());
  {
    Scope span(tracer, "scan::DomainScanner::probe", "scan");
    scan::DomainScanner scanner(*gen.world, config);
    timings.assign(resolvers.size() * steps, scan::ProbeTiming{});
    for (std::uint32_t r = 0; r < resolvers.size(); ++r) {
      for (std::uint32_t d = 0; d < steps; ++d) {
        scanner.probe(resolvers[r], r, names[d], static_cast<std::uint16_t>(d),
                      &timings[static_cast<std::size_t>(r) * steps + d]);
      }
    }
  }
  double sends = 0;
  for (const scan::ProbeTiming& timing : timings) sends += timing.transmissions;
  *sends_per_probe =
      timings.empty() ? 1.0 : sends / static_cast<double>(timings.size());
  Scope span(tracer, "scan::EventScanCore::run", "scan");
  costs.event_ns =
      event_ns(timings, resolvers.size(), steps, config.retry, seed);
  return costs;
}

double page_distance_ns(const std::vector<core::AcquiredPage>& pages,
                        Tracer* tracer) {
  constexpr std::size_t kSamplePages = 128;
  Scope span(tracer, "cluster::page_distance", "cluster");
  std::vector<http::PageFeatures> features;
  std::unordered_set<std::uint64_t> seen;
  for (const core::AcquiredPage& page : pages) {
    if (features.size() == kSamplePages) break;
    if (page.body.empty() || !seen.insert(page.body_hash).second) continue;
    features.push_back(http::extract_features(page.body));
  }
  if (features.size() < 2) return 0.0;
  const std::uint64_t pairs = features.size() * (features.size() - 1) / 2;
  return ns_per_item(pairs, kMinLoopSeconds, [&] {
    double total = 0;
    for (std::size_t i = 0; i < features.size(); ++i) {
      for (std::size_t j = i + 1; j < features.size(); ++j) {
        total += cluster::page_distance(features[i], features[j]);
      }
    }
    g_sink = g_sink + static_cast<std::uint64_t>(total);
  });
}

// Σ(unit cost × item count) for one scan stage, in ns of one thread.
double scan_work_ns(const ProbeCosts& costs, double probes, double sends,
                    double replies) {
  return probes * (costs.encode_ns + costs.telemetry_ns) +
         sends * costs.send_udp_ns + replies * costs.decode_ns;
}

// ---- output ---------------------------------------------------------------

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint32_t resolvers = 0;  // 0 = the workload's scale
  std::string work_dir = ".";
  std::string trace_out = "perfbench-trace.json";
};

void print_result(const Options& options, const Workload& workload,
                  std::uint32_t resolvers, int attempted, int failed,
                  const std::vector<std::string>& failures,
                  std::uint64_t digest, const Metrics& metrics) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"resolvers\": %u, ",
              workload.name, static_cast<unsigned long long>(options.seed),
              resolvers);
  std::printf("\"attempted\": %d, \"failed\": %d, \"digest\": \"%016llx\", ",
              attempted, failed, static_cast<unsigned long long>(digest));
  std::printf("\"failures\": [");
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                json_escape(failures[i]).c_str());
  }
  std::printf(
      "], \"provenance\": {\"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %ld, \"worker_threads\": %u}, ",
      PERFBENCH_BUILD_TYPE, json_escape(__VERSION__).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency());
  std::printf("\"trace_file\": \"%s\", \"metrics\": {",
              options.trace ? json_escape(options.trace_out).c_str() : "");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload study-chaos|campaign "
               "--seed N --seconds S --trace 0|1 [--resolvers N] "
               "[--work-dir DIR] [--trace-out FILE]\n");
  return 2;
}

// One workload iteration's end-to-end samples, digest and failed checks.
struct Iteration {
  double wall_s = 0;
  double cpu_s = 0;
  double virtual_scan_s = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
};

int run(const Options& options) {
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (options.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) return usage();
  const std::uint32_t resolvers =
      options.resolvers != 0 ? options.resolvers : workload->resolvers;
  const std::string store_dir = options.work_dir + "/store-" +
                                workload->name + "-" +
                                std::to_string(options.seed);

  Metrics metrics;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::uint64_t digest = 0;

  // The timed work on a freshly built setup.
  const auto iterate = [&](Setup& setup, Tracer* tracer, StudyRun* study_out,
                           CampaignRun* campaign_out) {
    Iteration it;
    if (workload->campaign) {
      CampaignRun done = run_campaign(setup, options.seed, store_dir, tracer);
      it.wall_s = done.wall_s;
      it.cpu_s = done.cpu_s;
      it.virtual_scan_s = campaign_virtual_seconds(done.fresh);
      it.digest = fnv1a(kFnvBasis, done.fresh.to_json(true));
      it.failures = check_campaign(done);
      if (campaign_out != nullptr) *campaign_out = std::move(done);
    } else {
      StudyRun done =
          run_study(*workload, setup.worlds[0], options.seed, tracer);
      it.wall_s = done.wall_s;
      it.cpu_s = done.cpu_s;
      it.virtual_scan_s =
          done.enumeration.virtual_scan_seconds +
          static_cast<double>(done.report.metrics.counter_value(
              "scan.domain.event.virtual_us")) /
              1e6;
      it.digest = study_digest(done.report);
      it.failures = check_study(done);
      if (study_out != nullptr) *study_out = std::move(done);
    }
    return it;
  };
  // Counts the iteration; a throw or a failed check fails it, and so does
  // a digest that differs from an earlier iteration of the same seed.
  const auto guarded = [&](const std::function<Iteration()>& body) {
    Iteration it;
    try {
      it = body();
    } catch (const std::exception& error) {
      it = Iteration{};
      it.failures.push_back(std::string("iteration threw: ") + error.what());
    }
    if (attempted > 0 && it.failures.empty() && it.digest != digest) {
      it.failures.push_back("output digest differs between iterations");
    }
    if (attempted == 0) digest = it.digest;
    ++attempted;
    if (!it.failures.empty()) ++failed;
    failures.insert(failures.end(), it.failures.begin(), it.failures.end());
    return it;
  };

  if (!options.trace) {
    std::vector<double> setup_s;
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    const auto measure_start = Clock::now();
    Setup setup = build_worlds(*workload, resolvers, options.seed, nullptr);
    do {
      const Iteration it = guarded(
          [&] { return iterate(setup, nullptr, nullptr, nullptr); });
      std::fprintf(stderr, "iteration %d: wall %.3f s, cpu %.3f s; builds",
                   attempted, it.wall_s, it.cpu_s);
      std::vector<double> builds;
      for (int i = 0; i < kBuildsPerIteration; ++i) {
        setup = Setup{};  // one setup alive at a time, as in a user's run
        setup = build_worlds(*workload, resolvers, options.seed, nullptr);
        builds.push_back(setup.seconds);
        std::fprintf(stderr, " %.3f", setup.seconds);
      }
      const double probe = probe_seconds();
      std::fprintf(stderr, " s; probe %.4f s\n", probe);
      const double scale = kReferenceProbeSeconds / probe;
      if (it.failures.empty()) {
        wall_s.push_back(it.wall_s * scale);
        cpu_s.push_back(it.cpu_s * scale);
      }
      for (const double build : builds) setup_s.push_back(build * scale);
    } while (seconds_since(measure_start) < options.seconds);
    metrics["setup_s"] = median(setup_s);
    metrics["wall_s"] = median(wall_s);
    metrics["cpu_s"] = median(cpu_s);
    metrics["peak_rss_mb"] = peak_rss_mb();
    fs::remove_all(store_dir);
    print_result(options, *workload, resolvers, attempted, failed, failures,
                 digest, metrics);
    return 0;
  }

  // Traced: the work once with spans around every outside call, then the
  // unit-cost loops. The traced iteration runs first in its process, so
  // its RSS checkpoints see no earlier allocations. wall_s is reported so
  // run.py can set it against untraced runs for the tracing overhead.
  Tracer tracer;
  StudyRun study;
  CampaignRun camp;
  const int root =
      tracer.open(std::string("workload ") + workload->name, "bench");
  Setup setup = build_worlds(*workload, resolvers, options.seed, &tracer);
  metrics["mem.rss_setup_mb"] = current_rss_mb();
  const Iteration traced =
      guarded([&] { return iterate(setup, &tracer, &study, &camp); });
  metrics["scan.virtual_scan_s"] = traced.virtual_scan_s;
  metrics["worldgen.generate_s"] =
      setup.seconds / static_cast<double>(setup.worlds.size());
  worldgen::GeneratedWorld& gen = setup.worlds.back();
  metrics["worldgen.hosts"] =
      static_cast<double>(setup.worlds[0].world->host_count());
  const net::World::LazyStats lazy = setup.worlds[0].world->lazy_stats();
  metrics["worldgen.lazy_materializations"] =
      static_cast<double>(lazy.materializations);
  metrics["worldgen.lazy_evictions"] = static_cast<double>(lazy.evictions);

  obs::Snapshot snapshot;
  {
    Scope span(&tracer, "obs::Registry::snapshot", "obs");
    const auto start = Clock::now();
    snapshot = setup.worlds[0].world->metrics().snapshot();
    metrics["obs.snapshot_s"] = seconds_since(start);
  }
  const auto counter = [&](const char* name) {
    return static_cast<double>(snapshot.counter_value(name));
  };
  const double retransmissions = counter("retry.retransmissions");
  metrics["scan.retransmissions"] = retransmissions;
  metrics["scan.retry_recovered_ratio"] =
      retransmissions > 0 ? counter("retry.recovered") / retransmissions : 0.0;
  metrics["scan.event.events"] =
      counter("scan.ipv4.event.events") + counter("scan.domain.event.events");
  metrics["net.udp_sent"] = counter("net.udp.sent");
  metrics["net.fault_hits"] = static_cast<double>(fault_hits(snapshot));
  metrics["scan.ipv4.probes"] = counter("scan.ipv4.probed");

  // The enumeration the roll-up compares with: the study's own, or on
  // `campaign` (which opens no spans of its own) one standalone full sweep
  // of the resumed world, so its time is scan time only.
  scan::Ipv4ScanSummary enumeration;
  double enumeration_s = 0;
  std::vector<net::Ipv4> population;
  if (workload->campaign) {
    metrics["campaign.epoch_s"] = camp.epochs_s / kCampaignEpochs;
    metrics["campaign.resume_s"] = camp.resume_s;
    metrics["campaign.delta_probe_fraction"] =
        camp.fresh.summary.delta_probe_fraction;
    metrics["campaign.store_bytes_per_epoch"] =
        static_cast<double>(camp.store_bytes) / kCampaignEpochs;
    {
      Scope span(&tracer, "campaign::EpochStore::load_all", "campaign");
      const campaign::EpochStore store(store_dir, camp.config_hash);
      metrics["campaign.store_load_s"] = ns_per_item(1, 0.1, [&] {
                                           g_sink = g_sink +
                                                    store.load_all()
                                                        .epochs.size();
                                         }) /
                                         1e9;
    }
    {
      Scope span(&tracer, "campaign::EpochStore::save", "campaign");
      const campaign::EpochStore store(store_dir + "-save", camp.config_hash);
      metrics["campaign.store_save_s"] =
          ns_per_item(camp.fresh.epochs.size(), 0.1, [&] {
            for (const campaign::EpochRecord& epoch : camp.fresh.epochs) {
              g_sink = g_sink + (store.save(epoch) ? 1 : 0);
            }
          }) /
          1e9;
      fs::remove_all(store_dir + "-save");
    }
    {
      Scope span(&tracer, "scan::Ipv4Scanner::scan", "scan");
      scan::Ipv4Scanner scanner(*gen.world,
                                enumeration_config(*workload, gen,
                                                   options.seed));
      const auto start = Clock::now();
      enumeration = scanner.scan(gen.universe);
      enumeration_s = seconds_since(start);
    }
  } else {
    const core::StudyReport& report = study.report;
    enumeration = study.enumeration;
    enumeration_s = study.enumeration_s;
    metrics["mem.rss_enumeration_mb"] = study.rss_enumeration_mb;
    metrics["mem.rss_pipeline_mb"] = current_rss_mb();
    metrics["core.records_bytes"] = static_cast<double>(records_bytes(report));
    attach_program_spans(tracer, study.pipeline_span, report.metrics);

    const obs::Snapshot& program = report.metrics;
    const double domain_scan_s = span_seconds(program, "stage.domain_scan");
    const double domain_probes =
        static_cast<double>(program.counter_value("scan.domain.probes"));
    metrics["scan.domain.scan_s"] = domain_scan_s;
    metrics["scan.domain.probes"] = domain_probes;
    metrics["scan.domain.ns_per_probe"] =
        domain_probes > 0 ? domain_scan_s * 1e9 / domain_probes : 0.0;
    metrics["core.prefilter_s"] = span_seconds(program, "stage.prefilter");
    const double acquisition_s = span_seconds(program, "stage.acquisition");
    metrics["core.acquisition_s"] = acquisition_s;
    metrics["core.verification_s"] =
        span_seconds(program, "stage.verification");
    metrics["core.clustering_s"] = span_seconds(program, "stage.clustering");
    metrics["core.labeling_s"] = span_seconds(program, "stage.labeling");
    const double http_pages =
        static_cast<double>(program.counter_value("http.fetch.pages"));
    metrics["http.pages"] = http_pages;
    metrics["http.tls_handshakes"] = static_cast<double>(
        program.counter_value("http.fetch.tls_handshakes"));
    metrics["http.ns_per_page"] =
        http_pages > 0 ? acquisition_s * 1e9 / http_pages : 0.0;
    metrics["cluster.unique_pages"] =
        static_cast<double>(report.classification.unique_pages);
    metrics["cluster.pair_distances"] =
        static_cast<double>(report.classification.pair_distances);

    // The post-classification analyses, re-run and timed from outside.
    const core::StudyData data = report.view();
    double analyses_s = 0;
    const auto time_analysis = [&](const char* metric, const char* name,
                                   const std::function<void()>& body) {
      Scope span(&tracer, name, "core");
      const auto start = Clock::now();
      body();
      const double seconds = seconds_since(start);
      analyses_s += seconds;
      metrics[metric] = seconds;
    };
    time_analysis("core.censorship_report_s", "core::censorship_report", [&] {
      g_sink = g_sink +
               core::censorship_report(data).censoring_by_country.size();
    });
    time_analysis("core.case_study_report_s", "core::case_study_report", [&] {
      g_sink = g_sink +
               core::case_study_report(data, *gen.world, gen.vantage_ip)
                   .phishing_resolvers;
    });
    time_analysis("core.find_modifications_s", "core::find_modifications",
                  [&] {
                    g_sink = g_sink +
                             core::find_modifications(data).compared_pages;
                  });
    time_analysis("core.geo_histogram_s", "core::geo_histogram", [&] {
      g_sink = g_sink + core::geo_histogram(data, {"facebook.com",
                                                   "twitter.com",
                                                   "youtube.com"})
                            .all.size();
    });

    // pipeline.run minus its direct stage children and the analyses.
    double run_s = 0;
    double staged_s = 0;
    std::uint64_t run_seq = 0;
    for (const obs::SpanRecord& span : program.spans) {
      if (span.name == "pipeline.run") {
        run_s = span.wall_ms / 1000.0;
        run_seq = span.seq;
      } else if (run_seq != 0 && span.parent == run_seq) {
        staged_s += span.wall_ms / 1000.0;
      }
    }
    metrics["core.span_coverage"] = run_s > 0 ? staged_s / run_s : 0.0;
    metrics["core.unattributed_s"] = run_s - staged_s - analyses_s;
    population = report.resolvers;
  }
  metrics["scan.ipv4.scan_s"] = enumeration_s;
  metrics["scan.ipv4.ns_per_probe"] =
      enumeration.probed > 0
          ? enumeration_s * 1e9 / static_cast<double>(enumeration.probed)
          : 0.0;
  tracer.close(root);

  for (const auto& [layer, seconds] : tracer.self_seconds(root)) {
    if (layer != "bench") metrics[layer + ".self_s"] = seconds;
  }

  // Unit costs, each scan stage on a sample of its own probes. The layer
  // metrics report the sample of the workload's main scan: the domain scan
  // on `study-chaos`, the enumeration on `campaign`.
  const int units = tracer.open("unit costs", "bench");
  const ProbeCosts enumeration_costs =
      measure_enumeration_costs(*workload, gen, options.seed, &tracer);
  ProbeCosts domain_costs;
  double domain_sends_per_probe = 1.0;
  double pair_ns = 0;
  if (!workload->campaign) {
    domain_costs =
        measure_domain_costs(*workload, gen, population, options.seed,
                             &domain_sends_per_probe, &tracer);
    pair_ns = page_distance_ns(study.report.pages, &tracer);
  }
  tracer.close(units);
  const ProbeCosts& main_costs =
      workload->campaign ? enumeration_costs : domain_costs;
  metrics["dns.encode_ns"] = main_costs.encode_ns;
  metrics["dns.decode_ns"] = main_costs.decode_ns;
  metrics["net.send_udp_ns"] = main_costs.send_udp_ns;
  metrics["obs.telemetry_ns_per_probe"] = main_costs.telemetry_ns;
  metrics["scan.event.ns_per_event"] = main_costs.event_ns;
  metrics["cluster.page_distance_ns"] = pair_ns;

  // Stage roll-up: Σ(unit cost × item count) beside the stage's wall time.
  // Probe work is spread over the scan workers; the event replay runs
  // serially on the coordinator.
  const double threads = std::max(1u, std::thread::hardware_concurrency());
  const auto rollup = [&](const std::string& stage, double wall,
                          double parallel_ns, double serial_ns) {
    const double modeled = (parallel_ns / threads + serial_ns) / 1e9;
    metrics["rollup." + stage + ".modeled_s"] = modeled;
    metrics["rollup." + stage + ".residual_s"] = wall - modeled;
    std::fprintf(stderr,
                 "rollup %-12s wall %8.3f s  modeled %8.3f s  residual "
                 "%8.3f s (%.0f%% of wall)\n",
                 stage.c_str(), wall, modeled, wall - modeled,
                 wall > 0 ? 100.0 * (wall - modeled) / wall : 0.0);
  };
  rollup("enumeration", enumeration_s,
         scan_work_ns(enumeration_costs, static_cast<double>(enumeration.probed),
                      static_cast<double>(enumeration.probed +
                                          enumeration.retry_retransmissions),
                      static_cast<double>(enumeration.responses)),
         static_cast<double>(enumeration.event_count) *
             enumeration_costs.event_ns);
  if (!workload->campaign) {
    const double probes = metrics["scan.domain.probes"];
    rollup("domain_scan", metrics["scan.domain.scan_s"],
           scan_work_ns(domain_costs, probes, probes * domain_sends_per_probe,
                        static_cast<double>(study.report.metrics.counter_value(
                            "scan.domain.responded"))),
           counter("scan.domain.event.events") * domain_costs.event_ns);
    rollup("clustering", metrics["core.clustering_s"],
           metrics["cluster.pair_distances"] * pair_ns, 0.0);
  }
  if (!tracer.write_chrome_json(options.trace_out)) {
    failures.push_back("cannot write trace " + options.trace_out);
    ++failed;
  }
  // Scaled as the untraced runs' wall_s is, which run.py sets it against.
  metrics["wall_s"] = traced.wall_s * kReferenceProbeSeconds / probe_seconds();
  fs::remove_all(store_dir);
  print_result(options, *workload, resolvers, attempted, failed, failures,
               digest, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (argc % 2 == 0) return perfbench::usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--resolvers") {
      options.resolvers =
          static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return perfbench::usage();
    }
  }
  return perfbench::run(options);
}
