// The serving workload and the sharded-tower replay of its traced runs.
//
// single-poisson: one InferenceServer on the classic path (2 workers,
// max_batch 16, 500 us max_batch_delay) over a 65,536-vertex learnable SBM
// with 64-d features; uniform request targets. Phase A is windowed
// saturation (throughput), phase B open-loop Poisson at a fixed rate
// (latency).
//
// Traced runs then replay the sharded tower over the same graph: ComposedTier
// R = 1, P = 2 (Router p2c -> ReplicaGroup -> ShardedServer over a Libra
// 2-way cut, classic halo path, prefetch depth 2) under open-loop MMPP
// Zipf(1.0) reads, with a Poisson stream of graph deltas through a
// DeltaPublisher. The tower is not a workload of its own: its latency is set
// by cross-thread handoffs and did not repeat from run to run (see README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "graph/datasets.hpp"
#include "kernels/aggregate.hpp"
#include "nn/gemm.hpp"
#include "partition/libra.hpp"
#include "partition/partition_setup.hpp"
#include "sampling/minibatch.hpp"
#include "serve/composed_tier.hpp"
#include "serve/feature_cache.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/sharded_server.hpp"
#include "stream/delta_publisher.hpp"
#include "stream/graph_delta.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

using namespace distgnn;
using namespace distgnn::serve;

constexpr vid_t kVertices = 65536;
constexpr int kFeatureDim = 64;
constexpr int kClasses = 16;
constexpr int kHidden = 64;
constexpr int kMaxBatch = 16;
constexpr int kSetupReps = 21;
constexpr int kWindow = 128;         // phase-A requests kept outstanding
constexpr double kPhaseAShare = 0.3;  // of --seconds; phase B gets the rest
constexpr double kTowerShare = 0.3;   // of --seconds, for each tower replay phase
constexpr int kWindowSamples = 2000;  // phase-B requests per trace window
constexpr std::size_t kQueueCapacity = 1 << 16;

// Open-loop arrival rates, fixed so every commit sees the same offered load
// (a fifth to a third of each server's saturation throughput when set).
constexpr double kSingleRate = 6000;
constexpr double kTowerRate = 1500;
constexpr double kMmppHoldBurst = 0.010;  // s; the quiet state holds 4x longer
constexpr double kWriteRate = 5;          // graph deltas per second

std::vector<int> fanouts() { return {10, 10}; }

Dataset make_serving_dataset(std::uint64_t seed) {
  LearnableSbmParams p;
  p.num_vertices = kVertices;
  p.num_classes = kClasses;
  p.avg_degree = 16;
  p.feature_dim = kFeatureDim;
  p.seed = seed;
  return make_learnable_sbm(p);
}

std::shared_ptr<const ModelSnapshot> make_snapshot(std::uint64_t seed) {
  ModelSpec spec;
  spec.kind = ModelKind::kSage;
  spec.feature_dim = kFeatureDim;
  spec.hidden_dim = kHidden;
  spec.num_classes = kClasses;
  spec.num_layers = 2;
  return ModelSnapshot::random(spec, seed, /*version=*/1);
}

/// Direct recomputation of one request's answer from raw feature rows:
/// sample_minibatch with the request's own RNG stream, a plain row copy,
/// forward_batch. True when `got` is bitwise equal to it.
class Recompute {
 public:
  Recompute(const Dataset& ds, const ModelSnapshot& snapshot, std::uint64_t sample_seed)
      : ds_(ds), snapshot_(snapshot), sample_seed_(sample_seed) {}

  bool matches(vid_t v, const std::vector<real_t>& got) {
    Rng rng = request_rng(sample_seed_, v);
    const vid_t seed[1] = {v};
    const MiniBatch mb = sample_minibatch(ds_.graph.in_csr(), seed, fanouts_, rng);
    const std::size_t f = static_cast<std::size_t>(ds_.feature_dim());
    inputs_.resize_discard(mb.input_vertices.size(), f);
    for (std::size_t r = 0; r < mb.input_vertices.size(); ++r)
      std::memcpy(inputs_.row(r),
                  ds_.features.row(static_cast<std::size_t>(mb.input_vertices[r])),
                  f * sizeof(real_t));
    snapshot_.forward_batch(std::span<const MiniBatch>(&mb, 1), inputs_.cview(), scratch_,
                            logits_);
    ++checked;
    return got.size() == logits_.cols() &&
           std::memcmp(got.data(), logits_.row(0), got.size() * sizeof(real_t)) == 0;
  }

  /// Checks every kept answer of `log`; returns the number of mismatches.
  std::size_t mismatches(const RequestLog& log) {
    std::size_t bad = 0;
    for (std::size_t i = 0; i < log.submitted; i += RequestLog::kKeepStride)
      if (log.answered[i] && !matches(log.vertex[i], log.answer(i))) ++bad;
    return bad;
  }

  std::size_t checked = 0;

 private:
  const Dataset& ds_;
  const ModelSnapshot& snapshot_;
  std::uint64_t sample_seed_;
  const std::vector<int> fanouts_ = fanouts();
  ForwardScratch scratch_;
  DenseMatrix inputs_, logits_;
};

/// Process CPU seconds minus the benchmark's own generator/writer threads.
struct CpuMeter {
  double process = process_cpu_seconds();
  double own = thread_cpu_seconds();
  double server_seconds(double writer_cpu) const {
    return (process_cpu_seconds() - process) - (thread_cpu_seconds() - own) - writer_cpu;
  }
};

struct PhaseCounters {
  std::uint64_t submitted = 0, answered = 0, rejected = 0;
};

void tally(const RequestLog& log, PhaseCounters& c) {
  c.submitted += log.submitted;
  c.rejected += log.rejected;
  c.answered += log.completed.load();
}

/// Phase-A throughput: completions per second between the first submit and
/// the last completion.
double window_throughput(const RequestLog& log) {
  double last = 0;
  for (std::size_t i = 0; i < log.submitted; ++i) last = std::max(last, log.done[i]);
  return static_cast<double>(log.completed.load()) / (last - log.due[0]);
}

/// Phase-B windows of about kWindowSamples requests alternate traced and
/// untraced in --trace 1 runs.
std::size_t latency_windows(const RequestLog& log) {
  return std::max<std::size_t>(1, log.size() / kWindowSamples);
}
bool in_odd_window(const RequestLog& log, std::size_t i) {
  const double first = log.due.front(), last = log.due.back();
  const auto windows = static_cast<double>(latency_windows(log));
  const auto w = static_cast<std::size_t>((log.due[i] - first) / ((last - first) / windows));
  return w % 2 == 1;
}

double span_p50_ms(const RequestLog& log, obs::Stage stage) {
  std::vector<double> ms;
  for (const auto& trace : log.traces)
    if (trace && trace->trace().span(stage).valid())
      ms.push_back(trace->trace().span(stage).duration_seconds() * 1e3);
  return median(ms);
}

// ----------------------------------------------------------- layer replays
/// Sampling, feature gather and model forward, replayed from the benchmark
/// over the workload's own request targets.
void replay_request_layers(const Dataset& ds, const ModelSnapshot& snapshot,
                           std::uint64_t sample_seed, const TierConfig& tier,
                           const std::vector<vid_t>& targets, Report& report) {
  const std::vector<int> fo = fanouts();
  const std::size_t n = std::min<std::size_t>(targets.size(), 4096);
  std::vector<MiniBatch> mbs;
  mbs.reserve(n);
  set_alloc_counting(true);
  const std::uint64_t a0 = alloc_count();
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng = request_rng(sample_seed, targets[i]);
    const vid_t seed[1] = {targets[i]};
    mbs.push_back(sample_minibatch(ds.graph.in_csr(), seed, fo, rng));
  }
  const double t1 = now_seconds();
  const std::uint64_t a1 = alloc_count();
  set_alloc_counting(false);
  // mbs.push_back never reallocates (reserved), so every counted allocation
  // belongs to the sampler.
  report.set("sampling.sample_us", (t1 - t0) / static_cast<double>(n) * 1e6);
  report.set("sampling.allocs_per_request", static_cast<double>(a1 - a0) / static_cast<double>(n));

  // Input-row gather through a feature cache of the workload's geometry
  // (one warm pass, one timed), and the same rows copied directly.
  const std::size_t f = static_cast<std::size_t>(ds.feature_dim());
  ShardedFeatureCache cache(tier.cache_bytes, f, tier.cache_shards);
  std::size_t rows = 0;
  for (const MiniBatch& mb : mbs) rows = std::max(rows, mb.input_vertices.size());
  DenseMatrix buf(rows, f);
  const auto gather = [&](const MiniBatch& mb) {
    std::size_t r = 0;
    for (const vid_t v : mb.input_vertices)
      cache.get_or_fill(0, static_cast<std::uint64_t>(v), buf.row(r++), [&](real_t* dst) {
        std::memcpy(dst, ds.features.row(static_cast<std::size_t>(v)), f * sizeof(real_t));
      });
  };
  for (const MiniBatch& mb : mbs) gather(mb);
  const double g0 = now_seconds();
  for (const MiniBatch& mb : mbs) gather(mb);
  const double g1 = now_seconds();
  for (const MiniBatch& mb : mbs) {
    std::size_t r = 0;
    for (const vid_t v : mb.input_vertices)
      std::memcpy(buf.row(r++), ds.features.row(static_cast<std::size_t>(v)), f * sizeof(real_t));
  }
  const double g2 = now_seconds();
  report.set("feature_cache.gather_us", (g1 - g0) / static_cast<double>(n) * 1e6);
  report.set("feature_cache.copy_us", (g2 - g1) / static_cast<double>(n) * 1e6);

  // forward_batch per request at batch 1 and batch 16 (stacked inputs).
  const std::size_t fwd = std::min<std::size_t>(n, 1024) / kMaxBatch * kMaxBatch;
  ForwardScratch scratch;
  DenseMatrix inputs, logits;
  double b1 = 0, b16 = 0;
  for (std::size_t i = 0; i < fwd; i += kMaxBatch) {
    const std::span<const MiniBatch> batch(mbs.data() + i, kMaxBatch);
    std::size_t total = 0;
    for (const MiniBatch& mb : batch) total += mb.input_vertices.size();
    inputs.resize_discard(total, f);
    std::size_t r = 0;
    for (const MiniBatch& mb : batch)
      for (const vid_t v : mb.input_vertices)
        std::memcpy(inputs.row(r++), ds.features.row(static_cast<std::size_t>(v)),
                    f * sizeof(real_t));
    double t = now_seconds();
    snapshot.forward_batch(batch, inputs.cview(), scratch, logits);
    b16 += now_seconds() - t;
    std::size_t offset = 0;
    for (const MiniBatch& mb : batch) {
      const ConstMatrixView one(inputs.row(offset), mb.input_vertices.size(), f);
      t = now_seconds();
      snapshot.forward_batch(std::span<const MiniBatch>(&mb, 1), one, scratch, logits);
      b1 += now_seconds() - t;
      offset += mb.input_vertices.size();
    }
  }
  report.set("model.forward_us_b1", b1 / static_cast<double>(fwd) * 1e6);
  report.set("model.forward_us_b16", b16 / static_cast<double>(fwd) * 1e6);
}

/// Full-graph aggregation and the model's layer GEMMs over all vertices, as
/// a reference for the kernel layer on this workload's graph (the serving
/// forward runs its own loops, so these do not move its latency).
void replay_kernels(const Dataset& ds, Report& report) {
  const CsrMatrix& csr = ds.graph.in_csr();
  const auto n = static_cast<std::size_t>(ds.num_vertices());
  const BlockedCsr blocked(csr, auto_num_blocks(ds.num_vertices(), kFeatureDim));
  DenseMatrix x(n, kFeatureDim, 0.5f), out(n, kFeatureDim);
  std::vector<double> t;
  for (int rep = 0; rep < 9; ++rep) {
    out.zero();
    const double t0 = now_seconds();
    aggregate_prepartitioned(blocked, x.cview(), {}, out.view(), ApConfig{});
    t.push_back(now_seconds() - t0);
  }
  const double agg_s = 2 * median(t);  // both layers are kFeatureDim wide
  report.set("kernels.aggregate_ms", agg_s * 1e3);
  report.set("kernels.aggregate_gbps", 2.0 * static_cast<double>(ds.num_edges()) * kFeatureDim *
                                           sizeof(real_t) / agg_s * 1e-9);
  DenseMatrix w0(kFeatureDim, kHidden, 0.25f), h(n, kHidden), w1(kHidden, kClasses, 0.25f),
      y(n, kClasses);
  t.clear();
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_seconds();
    gemm(x.cview(), w0.cview(), h.view());
    gemm(h.cview(), w1.cview(), y.view());
    t.push_back(now_seconds() - t0);
  }
  report.set("nn.gemm_ms", median(t) * 1e3);
  report.set("nn.gemm_gflops", 2.0 * static_cast<double>(n) *
                                   (kFeatureDim * kHidden + kHidden * kClasses) / median(t) *
                                   1e-9);
  report.set("comm.allreduce_ms", replay_allreduce_ms(make_snapshot(1)->num_parameters()));
}

// ------------------------------------------------------------- tower replay
ComposedConfig tower_config(std::uint64_t seed, std::uint64_t sample_seed) {
  ComposedConfig cfg;
  cfg.replicas = 1;
  cfg.shard.max_batch = kMaxBatch;
  cfg.shard.fanouts = fanouts();
  cfg.shard.queue_capacity = kQueueCapacity;
  cfg.shard.prefetch_depth = 2;
  cfg.shard.sample_seed = sample_seed;
  cfg.policy = RoutePolicy::kPowerOfTwo;
  // No deadlines and no low-priority lane: nothing is shed at this load.
  cfg.admission.shed_deadlines = false;
  cfg.admission.low_priority_depth = 0;
  cfg.admission.seed = seed;
  return cfg;
}

/// Publishes deltas[next...] through `publisher` at their due instants
/// (absolute), stopping before the first one due at or after `end`. Runs on
/// its own thread; its allocations are not counted as the servers'.
class DeltaWriter {
 public:
  DeltaWriter(stream::DeltaPublisher& publisher, const std::vector<stream::GraphDelta>& deltas,
              std::size_t& next, std::vector<double> due, double end)
      : thread_([&publisher, &deltas, &next, due = std::move(due), end, this] {
          const UncountedThread uncounted;
          const double cpu0 = thread_cpu_seconds();
          for (const double t : due) {
            if (t >= end || next >= deltas.size()) break;
            wait_until(t);
            const double t0 = now_seconds();
            publisher.publish(deltas[next++]);
            publish_ms.push_back((now_seconds() - t0) * 1e3);
          }
          cpu_seconds = thread_cpu_seconds() - cpu0;
        }) {}
  ~DeltaWriter() {
    if (thread_.joinable()) thread_.join();
  }
  DeltaWriter(const DeltaWriter&) = delete;
  DeltaWriter& operator=(const DeltaWriter&) = delete;

  void join() { thread_.join(); }

  std::vector<double> publish_ms;
  double cpu_seconds = 0;

 private:
  std::thread thread_;
};

std::vector<double> absolute(double start, const std::vector<double>& offsets) {
  std::vector<double> out(offsets.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) out[i] = start + offsets[i];
  return out;
}

/// The sharded tower, replayed in traced runs for its per-layer metrics:
/// ComposedTier R = 1, P = 2 (Router p2c -> ReplicaGroup -> ShardedServer
/// over a Libra 2-way cut of `base`, classic halo path, prefetch depth 2)
/// under open-loop MMPP Zipf(1.0) reads for `seconds`, with a Poisson stream
/// of graph deltas through a DeltaPublisher. The same schedule then goes
/// straight to a ShardedServer. Checks the answers after the last delta
/// against a cold rebuild and counts the tower's operations into `report`.
void replay_tower(const Args& args, const Dataset& base,
                  const std::shared_ptr<const ModelSnapshot>& snapshot,
                  std::uint64_t sample_seed, double seconds, Report& report) {
  const ComposedConfig cfg = tower_config(args.seed, sample_seed);
  std::vector<double> libra_s, owner_s;
  EdgePartition base_cut;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_seconds();
    base_cut = partition_libra(base.graph.coo(), 2, args.seed);
    const double t1 = now_seconds();
    (void)vertex_owners(base.graph.coo(), base_cut, base.num_vertices());
    libra_s.push_back(t1 - t0);
    owner_s.push_back(now_seconds() - t1);
  }
  report.set("partition.libra_s", median(libra_s));
  report.set("partition.halo_plan_s", median(owner_s));
  const PartitionedGraph pg = build_partitions(base.graph.coo(), base_cut);
  report.set("partition.replication_factor",
             static_cast<double>(pg.total_local_vertices()) /
                 static_cast<double>(pg.num_global_vertices));

  Dataset ds = base;
  EdgePartition cut = base_cut;
  ComposedTier tier(ds, cut, cfg);
  tier.publish(snapshot);
  tier.start();
  stream::DeltaPublisher publisher(ds, tier, stream::StreamConfig{}, &cut);

  // Inputs: Zipf(1.0) targets, MMPP arrivals, Poisson delta instants and
  // the delta stream itself.
  InputRng rng(args.seed ^ 0x70'3e12ull);
  const ZipfVertices zipf(kVertices, 1.0, rng);
  const std::vector<double> arrivals = mmpp_arrivals(kTowerRate, seconds, kMmppHoldBurst, rng);
  std::vector<vid_t> targets(arrivals.size());
  for (vid_t& v : targets) v = zipf.draw(rng);
  const std::vector<double> writes = poisson_instants_fixed_count(kWriteRate, seconds, rng);
  stream::DeltaStreamConfig stream_cfg;
  stream_cfg.num_deltas = static_cast<int>(writes.size());
  stream_cfg.seed = args.seed;
  const std::vector<stream::GraphDelta> deltas = stream::make_delta_stream(base, stream_cfg);

  RequestLog b(targets, kClasses, true);
  std::size_t next_delta = 0;
  const BackendStats s0 = tier.stats();
  const stream::StreamStats w0 = publisher.stats();
  const double start = now_seconds() + 0.05;
  schedule(b, start, arrivals);
  DeltaWriter writer(publisher, deltas, next_delta, absolute(start, writes), start + seconds);
  run_open_loop(tier, b, [&](std::size_t i) { return in_odd_window(b, i); });
  writer.join();
  const BackendStats s1 = tier.stats();
  const stream::StreamStats w1 = publisher.stats();
  const RouterStats routed = tier.router().stats();

  // After the last delta: answers equal a cold rebuild (base dataset with
  // every published delta applied by apply_delta) recomputed directly.
  const std::vector<vid_t> probe(b.vertex.begin(),
                                 b.vertex.begin() + std::min<std::size_t>(b.size(), 1024));
  const auto probed = tier.infer_batch(probe);
  tier.stop();

  Dataset cold = base;
  for (std::size_t k = 0; k < next_delta; ++k) stream::apply_delta(cold, deltas[k]);
  Recompute recompute(cold, *snapshot, sample_seed);
  std::size_t bad = 0, probe_answered = 0;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    if (!probed[i]) continue;
    ++probe_answered;
    if (!recompute.matches(probe[i], probed[i]->logits)) ++bad;
  }
  // Answers during the run come from a moving graph; they must be whole.
  std::size_t malformed = 0;
  for (std::size_t i = 0; i < b.submitted; i += RequestLog::kKeepStride) {
    const std::vector<real_t> answer = b.answer(i);
    if (b.answered[i] && (b.kept_size[i / RequestLog::kKeepStride] != kClasses ||
                          !std::all_of(answer.begin(), answer.end(),
                                       [](real_t x) { return std::isfinite(x); })))
      ++malformed;
  }

  PhaseCounters counts;
  tally(b, counts);
  counts.submitted += probe.size();
  counts.answered += probe_answered;
  const std::uint64_t published = w1.deltas_published - w0.deltas_published;
  std::printf("tower replay: submitted=%llu answered=%llu rejected=%llu shed=%llu "
              "deltas=%llu/%zu; samples=%zu; probe %zu/%zu match\n",
              static_cast<unsigned long long>(counts.submitted),
              static_cast<unsigned long long>(counts.answered),
              static_cast<unsigned long long>(counts.rejected),
              static_cast<unsigned long long>(routed.shed()),
              static_cast<unsigned long long>(published), next_delta, b.submitted,
              probe_answered - bad, probe.size());
  report.check(bad == 0, std::to_string(bad) + " tower answers after the last delta differ "
                                               "from a cold rebuild");
  report.check(malformed == 0, std::to_string(malformed) + " malformed tower answers");
  report.check(published == next_delta, "published deltas != deltas handed to the publisher");
  report.check(counts.answered + counts.rejected == counts.submitted,
               "tower: answered + rejected != submitted");
  report.count(counts.submitted + next_delta,
               (counts.submitted - counts.answered) + (next_delta - published));

  report.set("sharded.halo_wait_ms", span_p50_ms(b, obs::Stage::kHaloWait));
  report.set("sharded.halo_rows_per_request",
             static_cast<double>(s1.halo_rows_fetched - s0.halo_rows_fetched) /
                 static_cast<double>(s1.completed - s0.completed));
  report.set("stream.publish_ms", median(writer.publish_ms));
  report.set("stream.dirty_per_delta", static_cast<double>(w1.dirty_entries - w0.dirty_entries) /
                                           static_cast<double>(published));

  // The same schedule (reads, and as many deltas from the start of the
  // stream) sent straight to a ShardedServer: no Router, no group barrier.
  // The difference in p50 is what the tower layers add.
  Dataset direct_ds = base;
  EdgePartition direct_cut = base_cut;
  ShardedServer direct(direct_ds, direct_cut, cfg.shard);
  direct.publish(snapshot);
  direct.start();
  stream::DeltaPublisher direct_publisher(direct_ds, direct, stream::StreamConfig{},
                                          &direct_cut);
  RequestLog c(b.vertex, kClasses, true);
  std::size_t direct_next = 0;
  CpuMeter cpu_c;
  const double start_c = now_seconds() + 0.05;
  schedule(c, start_c, arrivals);
  DeltaWriter writer_c(direct_publisher, deltas, direct_next, absolute(start_c, writes),
                       start_c + seconds);
  run_open_loop(direct, c, [&](std::size_t i) { return in_odd_window(c, i); });
  writer_c.join();
  const double direct_cpu = cpu_c.server_seconds(writer_c.cpu_seconds);
  direct.stop();
  report.set("tower.added_p50_ms", latency_ms(b, 0.5, {}) - latency_ms(c, 0.5, {}));
  report.set("sharded.cpu_ms_per_request",
             direct_cpu / static_cast<double>(c.completed.load()) * 1e3);
}

}  // namespace

// ============================================================ single-poisson
void run_single_poisson(const Args& args, Report& report) {
  par::set_num_threads(1);
  const std::uint64_t sample_seed = args.seed * 2 + 1;
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = kMaxBatch;
  cfg.max_batch_delay = std::chrono::microseconds(500);
  cfg.fanouts = fanouts();
  cfg.queue_capacity = kQueueCapacity;
  cfg.sample_seed = sample_seed;

  // Set-up, several times: dataset, snapshot, server start with publish.
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Dataset> ds;
  std::shared_ptr<const ModelSnapshot> snapshot;
  std::unique_ptr<InferenceServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    ds.reset();
    const double t0 = now_seconds();
    ds = std::make_unique<Dataset>(make_serving_dataset(args.seed));
    const double t1 = now_seconds();
    snapshot = make_snapshot(args.seed);
    server = std::make_unique<InferenceServer>(*ds, cfg);
    server->publish(snapshot);
    server->start();
    setup_s.push_back(now_seconds() - t0);
    build_s.push_back(t1 - t0);
  }

  InputRng rng(args.seed ^ 0x51e6'1e00ull);
  const double phase_a = args.seconds * kPhaseAShare, phase_b = args.seconds - phase_a;
  std::uniform_int_distribution<vid_t> uniform(0, kVertices - 1);
  const auto targets = [&](std::size_t count) {
    std::vector<vid_t> out(count);
    for (vid_t& v : out) v = uniform(rng);
    return out;
  };
  RequestLog a(targets(static_cast<std::size_t>(60000 * phase_a)), kClasses, false);
  const std::vector<double> arrivals = poisson_arrivals(kSingleRate, phase_b, rng);
  RequestLog b(targets(arrivals.size()), kClasses, args.trace);

  // Phase A: windowed saturation.
  const BackendStats s0 = server->stats();
  CpuMeter cpu_a;
  if (args.trace) set_alloc_counting(true);
  const std::uint64_t allocs0 = alloc_count();
  run_window(*server, a, kWindow, now_seconds() + phase_a);
  const std::uint64_t allocs_a = alloc_count() - allocs0;
  set_alloc_counting(false);
  const double server_cpu_a = cpu_a.server_seconds(0);
  const BackendStats s1 = server->stats();

  // Phase B: open-loop Poisson.
  schedule(b, now_seconds() + 0.05, arrivals);
  const TracePredicate traced = [&](std::size_t i) { return args.trace && in_odd_window(b, i); };
  run_open_loop(*server, b, traced);
  const BackendStats s2 = server->stats();
  server->stop();
  const double rss = peak_rss_mb();

  PhaseCounters counts;
  tally(a, counts);
  tally(b, counts);
  Recompute recompute(*ds, *snapshot, sample_seed);
  const std::size_t bad = recompute.mismatches(a) + recompute.mismatches(b);
  std::printf("single-poisson: submitted=%llu answered=%llu rejected=%llu shed=0; "
              "phase-B samples=%zu; %zu answers recomputed\n",
              static_cast<unsigned long long>(counts.submitted),
              static_cast<unsigned long long>(counts.answered),
              static_cast<unsigned long long>(counts.rejected), b.submitted, recompute.checked);
  report.check(bad == 0, std::to_string(bad) + " served answers differ from recomputation");
  report.check(counts.answered + counts.rejected == counts.submitted,
               "answered + rejected != submitted");
  report.count(counts.submitted, counts.submitted - counts.answered);

  report.set("setup_s", median(setup_s));
  report.set("peak_rss_mb", rss);
  report.set("p50_ms", latency_ms(b, 0.5, {}));
  report.set("tail.p95_ms", latency_ms(b, 0.95, {}));
  report.set("tail.p99_ms", latency_ms(b, 0.99, {}));
  report.set("serve.throughput_per_s", window_throughput(a));
  report.set("host.copy_gbps", host_copy_gbps());
  report.set("loadgen.late_p99_ms", quantile(b.late, 0.99) * 1e3);
  if (!args.trace) return;

  report.set("graph.build_s", median(build_s));
  const auto completed_a = static_cast<double>(s1.completed - s0.completed);
  report.set("serve.mean_batch", static_cast<double>(s1.batched_requests - s0.batched_requests) /
                                     static_cast<double>(s1.batches - s0.batches));
  report.set("serve.cpu_ms_per_request", server_cpu_a / completed_a * 1e3);
  report.set("serve.allocs_per_request", static_cast<double>(allocs_a) / completed_a);
  report.set("serve.batch_wait_ms", span_p50_ms(b, obs::Stage::kQueue));
  CacheStats fc = s2.feature_cache;
  fc.accesses -= s1.feature_cache.accesses;
  fc.misses -= s1.feature_cache.misses;
  report.set("feature_cache.hit_ratio", fc.hit_rate());
  const auto odd = [&](std::size_t i) { return in_odd_window(b, i); };
  const auto even = [&](std::size_t i) { return !in_odd_window(b, i); };
  report.set("obs.trace_overhead_ms", latency_ms(b, 0.5, odd) - latency_ms(b, 0.5, even));
  replay_request_layers(*ds, *snapshot, sample_seed, cfg, b.vertex, report);
  replay_kernels(*ds, report);
  replay_tower(args, *ds, snapshot, sample_seed, args.seconds * kTowerShare, report);
}

}  // namespace perfbench
