// train-cd5: full-batch distributed GraphSAGE with cd-r delayed remote
// aggregates (r = 5), the paper's method. proteins-sim (scale 0.125, the
// learnable SBM) is cut by Libra into 2 parts and trained by 2 rank threads
// with 1 OpenMP thread each. Epochs are timed only after the 2r-epoch
// pipeline fill, over whole delay cycles.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "comm/world.hpp"
#include "core/distributed_trainer.hpp"
#include "core/sage_model.hpp"
#include "core/single_socket_trainer.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "kernels/aggregate.hpp"
#include "nn/gemm.hpp"
#include "partition/halo_plan.hpp"
#include "partition/libra.hpp"
#include "partition/partition_setup.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

using namespace distgnn;

constexpr double kScale = 0.125;
constexpr part_t kParts = 2;
constexpr int kDelay = 5;  // r
constexpr int kLayers = 2;
constexpr int kHidden = 64;
constexpr double kLearningRate = 0.5;
constexpr int kSetupReps = 21;
constexpr int kPilotCycles = 2;
// Exact evaluation must clear this test accuracy; chance is 1/32.
constexpr double kAccuracyFloor = 0.5;

struct Setup {
  Dataset dataset;
  EdgePartition cut;
  PartitionedGraph parts;
  std::vector<HaloPlan> plans;
  double build_s = 0, libra_s = 0, halo_plan_s = 0;
};

Setup make_setup(std::uint64_t seed) {
  DatasetSpec spec = dataset_spec("proteins-sim");
  spec.seed = seed;
  Setup s;
  const double t0 = now_seconds();
  s.dataset = make_dataset(spec, kScale);
  const double t1 = now_seconds();
  s.cut = partition_libra(s.dataset.graph.coo(), kParts, seed);
  const double t2 = now_seconds();
  s.parts = build_partitions(s.dataset.graph.coo(), s.cut, seed);
  s.plans = build_halo_plans(s.parts, kDelay);
  const double t3 = now_seconds();
  s.build_s = t1 - t0;
  s.libra_s = t2 - t1;
  s.halo_plan_s = t3 - t2;
  return s;
}

TrainConfig train_config(std::uint64_t seed, Algorithm algorithm, int epochs) {
  TrainConfig c;
  c.num_layers = kLayers;
  c.hidden_dim = kHidden;
  c.lr = kLearningRate;
  c.epochs = epochs;
  c.seed = seed;
  c.algorithm = algorithm;
  c.delay = kDelay;
  c.threads_per_rank = 1;
  c.halo_precision = HaloPrecision::kFp32;
  return c;
}

/// Input width of each layer's aggregation: features, then hidden.
std::vector<std::size_t> layer_widths(const Dataset& ds) {
  return {static_cast<std::size_t>(ds.feature_dim()), static_cast<std::size_t>(kHidden)};
}

/// Halo bytes one cd-r epoch sends, from the plans alone: every rank pushes
/// the bin's leaf partials, and from epoch r on also returns root totals.
std::uint64_t epoch_halo_bytes(const Setup& s, int epoch) {
  const int bin = epoch % kDelay;
  std::uint64_t bytes = 0;
  const auto widths = layer_widths(s.dataset);
  for (const std::size_t w : widths)
    for (part_t p = 0; p < kParts; ++p)
      for (part_t q = 0; q < kParts; ++q) {
        if (p == q) continue;
        const HaloPeerLists& lists = s.plans[static_cast<std::size_t>(p)].peer(bin, q);
        std::size_t rows = lists.send_leaf.size();
        if (epoch >= kDelay) rows += lists.send_root.size();
        bytes += rows * w * sizeof(real_t);
      }
  return bytes;
}

/// Halo bytes of the exact (all bins, both phases) evaluation pass.
std::uint64_t eval_halo_bytes(const Setup& s) {
  std::uint64_t bytes = 0;
  for (const std::size_t w : layer_widths(s.dataset))
    for (int bin = 0; bin < kDelay; ++bin)
      for (part_t p = 0; p < kParts; ++p)
        for (part_t q = 0; q < kParts; ++q) {
          if (p == q) continue;
          const HaloPeerLists& lists = s.plans[static_cast<std::size_t>(p)].peer(bin, q);
          bytes += (lists.send_leaf.size() + lists.send_root.size()) * w * sizeof(real_t);
        }
  return bytes;
}

/// Median seconds of `reps` calls of `fn`.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_seconds();
    fn();
    t.push_back(now_seconds() - t0);
  }
  return median(t);
}

void replay_kernels(const Setup& s, Report& report) {
  // Rank 0's forward aggregation at each layer's width, on the BlockedCsr
  // the trainer builds (one block count for both layers, as RankTrainer).
  const LocalPartition& lp = s.parts.parts[0];
  const CsrMatrix in_csr = CsrMatrix::from_coo(lp.edges);
  const auto n = static_cast<std::size_t>(lp.num_vertices);
  const BlockedCsr blocked(
      in_csr, auto_num_blocks(lp.num_vertices, static_cast<std::size_t>(s.dataset.feature_dim())));
  double seconds = 0, bytes = 0;
  for (const std::size_t w : layer_widths(s.dataset)) {
    DenseMatrix x(n, w, 0.5f), out(n, w);
    seconds += median_time(9, [&] {
      out.zero();
      aggregate_prepartitioned(blocked, x.cview(), {}, out.view(), ApConfig{});
    });
    bytes += static_cast<double>(lp.edges.num_edges()) * static_cast<double>(w) * sizeof(real_t);
  }
  report.set("kernels.aggregate_ms", seconds * 1e3);
  report.set("kernels.aggregate_gbps", bytes / seconds * 1e-9);

  // One epoch's GEMMs on rank 0: per layer the forward product, the weight
  // gradient and the input gradient.
  const std::size_t dims[kLayers + 1] = {static_cast<std::size_t>(s.dataset.feature_dim()),
                                         static_cast<std::size_t>(kHidden),
                                         static_cast<std::size_t>(s.dataset.num_classes)};
  double gemm_s = 0, flops = 0;
  for (int l = 0; l < kLayers; ++l) {
    const std::size_t in = dims[l], outd = dims[l + 1];
    DenseMatrix x(n, in, 0.25f), w(in, outd, 0.5f), y(n, outd), dy(n, outd, 0.125f),
        dw(in, outd), dx(n, in);
    gemm_s += median_time(5, [&] { gemm(x.cview(), w.cview(), y.view()); });
    gemm_s += median_time(5, [&] { gemm_at_b(x.cview(), dy.cview(), dw.view()); });
    gemm_s += median_time(5, [&] { gemm_a_bt(dy.cview(), w.cview(), dx.view()); });
    flops += 3.0 * 2.0 * static_cast<double>(n) * static_cast<double>(in) *
             static_cast<double>(outd);
  }
  report.set("nn.gemm_ms", gemm_s * 1e3);
  report.set("nn.gemm_gflops", flops / gemm_s * 1e-9);
}

}  // namespace

double replay_allreduce_ms(std::size_t length) {
  std::vector<double> times;
  World world(2);
  world.run([&](Communicator& comm) {
    std::vector<real_t> grads(length, 1.0f);
    for (int rep = 0; rep < 60; ++rep) {
      comm.barrier();
      const double t0 = now_seconds();
      comm.allreduce_sum(std::span<real_t>(grads));
      if (comm.rank() == 0 && rep >= 10) times.push_back(now_seconds() - t0);
    }
  });
  return median(times) * 1e3;
}

void run_train_cd5(const Args& args, Report& report) {
  par::set_num_threads(1);

  // Set-up, several times: dataset, Libra cut, partitions and halo plans.
  std::vector<double> setup_s, build_s, libra_s, plan_s;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Setup{};
    const double t0 = now_seconds();
    s = make_setup(args.seed);
    setup_s.push_back(now_seconds() - t0);
    build_s.push_back(s.build_s);
    libra_s.push_back(s.libra_s);
    plan_s.push_back(s.halo_plan_s);
  }
  std::printf("train-cd5: |V|=%d |E|=%lld split trees=%lld\n",
              static_cast<int>(s.dataset.num_vertices()),
              static_cast<long long>(s.dataset.num_edges()),
              static_cast<long long>(s.parts.num_split_trees));

  // Timed training: a pilot of 2 fill cycles + kPilotCycles measures the
  // epoch time, then one call fills the rest of --seconds with whole cycles.
  const double start = now_seconds();
  std::vector<double> epoch_ms, lat_ms, rat_ms, rest_ms;
  std::vector<double> pilot_losses;
  std::uint64_t epochs_run = 0, bad_epochs = 0;
  double test_accuracy = 0;
  int cycles = kPilotCycles;
  for (int call = 0; call < 2; ++call) {
    const int epochs = 2 * kDelay + kDelay * cycles;
    const TrainConfig cfg = train_config(args.seed, Algorithm::kCdR, epochs);
    const double t0 = now_seconds();
    const DistTrainResult r = train_distributed(s.dataset, s.parts, cfg);
    const double elapsed = now_seconds() - t0;
    epochs_run += static_cast<std::uint64_t>(epochs);

    double epoch_sum = 0;
    std::uint64_t expected_bytes = eval_halo_bytes(s);
    for (int e = 0; e < epochs; ++e) {
      const DistEpochRecord& rec = r.epochs[static_cast<std::size_t>(e)];
      expected_bytes += epoch_halo_bytes(s, e);
      if (!std::isfinite(rec.loss)) ++bad_epochs;
      if (e < 2 * kDelay) continue;
      epoch_sum += rec.total_seconds;
      epoch_ms.push_back(rec.total_seconds * 1e3);
      lat_ms.push_back(rec.local_agg_seconds * 1e3);
      rat_ms.push_back(rec.remote_agg_seconds * 1e3);
      rest_ms.push_back((rec.total_seconds - rec.local_agg_seconds - rec.remote_agg_seconds) *
                        1e3);
    }
    report.check(r.total_bytes_sent == expected_bytes,
                 "halo bytes " + std::to_string(r.total_bytes_sent) + " != plan volume " +
                     std::to_string(expected_bytes));
    // Loss falls: the last delay cycle's mean is below the first one's.
    double first = 0, last = 0;
    for (int e = 0; e < kDelay; ++e) {
      first += r.epochs[static_cast<std::size_t>(e)].loss;
      last += r.epochs[static_cast<std::size_t>(epochs - kDelay + e)].loss;
    }
    report.check(last < first, "cd-5 loss did not decrease over the run");
    // Same seed, same inputs: the pilot's loss trajectory must repeat.
    for (int e = 0; e < epochs; ++e) {
      const double loss = r.epochs[static_cast<std::size_t>(e)].loss;
      if (call == 0)
        pilot_losses.push_back(loss);
      else if (static_cast<std::size_t>(e) < pilot_losses.size())
        report.check(loss == pilot_losses[static_cast<std::size_t>(e)],
                     "epoch " + std::to_string(e) + " loss differs between two identical runs");
    }
    test_accuracy = r.test_accuracy;

    if (call == 0) {
      const double per_epoch = epoch_sum / (kDelay * cycles);
      const double overhead = elapsed - per_epoch * epochs;
      const double left = args.seconds - (now_seconds() - start) - overhead;
      cycles = std::max(1, static_cast<int>((left / per_epoch - 2 * kDelay) / kDelay));
    }
  }
  const double rss = peak_rss_mb();
  report.check(test_accuracy >= kAccuracyFloor,
               "exact-evaluation test accuracy " + std::to_string(test_accuracy) +
                   " below floor " + std::to_string(kAccuracyFloor));
  report.count(epochs_run, bad_epochs);
  report.check(bad_epochs == 0, "non-finite training loss");
  std::printf("train-cd5: %llu epochs run, %zu timed, test accuracy %.4f\n",
              static_cast<unsigned long long>(epochs_run), epoch_ms.size(), test_accuracy);

  // cd-0 is exact at epoch 0: its loss equals the single-socket trainer's.
  {
    const TrainConfig cfg = train_config(args.seed, Algorithm::kCd0, 1);
    const double dist_loss = train_distributed(s.dataset, s.parts, cfg).epochs[0].loss;
    SingleSocketTrainer single(s.dataset, cfg);
    const double single_loss = single.train_epoch().loss;
    report.check(std::abs(dist_loss - single_loss) <= 1e-5 * std::abs(single_loss),
                 "cd-0 epoch-0 loss " + std::to_string(dist_loss) +
                     " != single-socket loss " + std::to_string(single_loss));
  }

  double epoch_total_s = 0;
  for (const double ms : epoch_ms) epoch_total_s += ms * 1e-3;
  report.set("setup_s", median(setup_s));
  report.set("peak_rss_mb", rss);
  report.set("p50_ms", median(epoch_ms));
  report.set("tail.p95_ms", quantile(epoch_ms, 0.95));
  report.set("tail.p99_ms", quantile(epoch_ms, 0.99));
  report.set("train.epochs_per_s", static_cast<double>(epoch_ms.size()) / epoch_total_s);
  report.set("host.copy_gbps", host_copy_gbps());
  if (!args.trace) return;

  report.set("graph.build_s", median(build_s));
  report.set("partition.libra_s", median(libra_s));
  report.set("partition.halo_plan_s", median(plan_s));
  report.set("partition.replication_factor",
             static_cast<double>(s.parts.total_local_vertices()) /
                 static_cast<double>(s.parts.num_global_vertices));
  double cycle_bytes = 0;
  for (int e = 2 * kDelay; e < 3 * kDelay; ++e) cycle_bytes += epoch_halo_bytes(s, e);
  report.set("comm.halo_bytes_per_epoch", cycle_bytes / kDelay);
  // Every rank sends each peer a leaf->root and a root->leaf message per
  // layer per filled epoch (empty payloads included).
  report.set("comm.messages_per_epoch", 2.0 * kLayers * kParts * (kParts - 1));
  report.set("train.lat_ms", median(lat_ms));
  report.set("train.rat_ms", median(rat_ms));
  report.set("train.rest_ms", median(rest_ms));
  replay_kernels(s, report);
  const SageModel model(s.dataset.feature_dim(), kHidden, s.dataset.num_classes, kLayers,
                        args.seed);
  report.set("comm.allreduce_ms", replay_allreduce_ms(model.num_parameters()));
}

}  // namespace perfbench
