// Shared pieces of the repository benchmark: the run arguments, the result
// report printed as the last line of stdout, statistics, host probes, the
// allocation counter, and the load generators of the serving workload and its
// tower replay.
// Everything here is benchmark-side: the program under test only ever sees
// the inputs these helpers generate and the calls they make.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <semaphore>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "serve/backend.hpp"

namespace perfbench {

using distgnn::real_t;
using distgnn::vid_t;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

/// A metric the benchmark reports: end-to-end ones come from --trace 0 runs,
/// per-layer ones from --trace 1 runs. BENCHMARK.json lists the same names
/// and units in the same order (run.py checks that).
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/// Result of one run: operation counts, a correctness verdict and the
/// metric values. json() is the last line the benchmark prints.
class Report {
 public:
  /// `name` must be in kEndToEnd or kPerLayer.
  void set(const std::string& name, double value);
  /// Records a failed correctness check (printed at once, verdict false).
  void check(bool ok, const std::string& what);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Emits kEndToEnd (trace = false; every one must be set) or kPerLayer
  /// (trace = true; a layer that does no work on this workload reads 0).
  std::string json(bool trace) const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::pair<std::string, double>> values_;
};

// ------------------------------------------------------------------ statistics
double now_seconds();  // steady clock
/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// ----------------------------------------------------------------- host probes
double process_cpu_seconds();
double thread_cpu_seconds();
double peak_rss_mb();
/// memcpy bandwidth over a 32 MiB buffer (read + write bytes), median of 5.
/// Call it after peak_rss_mb(): its buffers would otherwise show in the peak.
double host_copy_gbps();

/// Global operator new calls counted while counting is on (counting is off
/// by default so untraced runs pay one relaxed load per allocation).
void set_alloc_counting(bool on);
std::uint64_t alloc_count();
/// While alive, allocations of the constructing thread are not counted (the
/// benchmark's own graph-delta writer thread uses it).
class UncountedThread {
 public:
  UncountedThread();
  ~UncountedThread();
  UncountedThread(const UncountedThread&) = delete;
  UncountedThread& operator=(const UncountedThread&) = delete;
};

// ---------------------------------------------------------------------- inputs
/// Seeded input stream; every input of a run derives from --seed through it.
using InputRng = std::mt19937_64;

/// Poisson arrival offsets in [0, duration) at `rate` per second.
std::vector<double> poisson_arrivals(double rate, double duration, InputRng& rng);
/// A Poisson process conditioned on its count: round(rate * duration)
/// instants drawn uniformly in [0, duration), sorted. Every seed gets the
/// same number of events, so their count adds no run-to-run spread.
std::vector<double> poisson_instants_fixed_count(double rate, double duration, InputRng& rng);
/// Two-state MMPP arrival offsets with long-run mean `rate`: a quiet state at
/// rate/4 and a burst state at 4 x rate, with exponential sojourns of mean
/// 4 x `hold_burst` (quiet) and `hold_burst` (burst), which makes the
/// time-weighted mean exactly `rate`.
std::vector<double> mmpp_arrivals(double rate, double duration, double hold_burst,
                                  InputRng& rng);

/// Zipf(s) popularity over [0, n) with ranks mapped through a seeded
/// permutation, so popularity is uncorrelated with vertex id.
class ZipfVertices {
 public:
  ZipfVertices(vid_t n, double s, InputRng& rng);
  vid_t draw(InputRng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<vid_t> vertex_of_rank_;
};

// ------------------------------------------------------------- load generators
/// One phase's requests: targets, due instants and completion records in
/// preallocated slots, so the callbacks the generators hand to submit() capture
/// 16 bytes (kept inside std::function) and never allocate.
struct RequestLog {
  /// `width` is the number of logits per answer.
  RequestLog(std::vector<vid_t> targets, std::size_t width, bool traced);

  std::vector<vid_t> vertex;
  std::vector<double> due;    // absolute steady seconds the request was due
  std::vector<double> done;   // absolute steady seconds its callback ran
  std::vector<double> late;   // submit instant - due (open loop)
  std::vector<std::uint8_t> answered;
  /// Traced runs keep each traced request's stage trace (empty otherwise).
  std::vector<std::shared_ptr<distgnn::obs::TraceContext>> traces;

  /// Answers of every kKeepStride-th request (the ones checks recompute),
  /// `width` logits each; `kept_size` says how many a request returned.
  static constexpr std::size_t kKeepStride = 8;
  std::size_t width;
  std::vector<real_t> kept;
  std::vector<std::uint32_t> kept_size;
  std::vector<real_t> answer(std::size_t i) const {
    const real_t* row = kept.data() + (i / kKeepStride) * width;
    return {row, row + std::min<std::size_t>(kept_size[i / kKeepStride], width)};
  }

  std::size_t submitted = 0;
  std::uint64_t rejected = 0;
  std::atomic<std::uint64_t> completed{0};
  /// Saturation window: completions free slots, and every kRefill freed
  /// slots wake the generator once (one wake-up per server batch).
  static constexpr std::uint64_t kRefill = 16;
  std::counting_semaphore<1 << 20> window{0};
  std::atomic<std::uint64_t> freed{0};
  std::atomic<bool> windowed{false};
  void free_slot() {
    if (freed.fetch_add(1, std::memory_order_acq_rel) % kRefill == kRefill - 1) window.release();
  }

  std::size_t size() const { return vertex.size(); }
};

/// Which requests of a phase carry a stage trace.
using TracePredicate = std::function<bool(std::size_t index)>;

/// Open loop: submits request i at log.due[i] (absolute), sleeping until
/// ~150 us before each instant and spinning the rest. Latency is measured
/// from the due instant. Returns when every admitted request has completed.
void run_open_loop(distgnn::serve::ServingBackend& backend, RequestLog& log,
                   const TracePredicate& traced);

/// Saturation: one thread keeps between `window` - kRefill and `window`
/// requests outstanding until `end_time` (absolute) or the log is exhausted,
/// refilling kRefill at a time. Returns after the last outstanding request
/// completes.
void run_window(distgnn::serve::ServingBackend& backend, RequestLog& log, int window,
                double end_time);

/// Sleeps until ~150 us before absolute steady time `t`, then spins.
void wait_until(double t);

/// Fills the due instants of `log` as `start + offsets[i]`.
void schedule(RequestLog& log, double start, const std::vector<double>& offsets);

/// Latency q-quantile (ms, due instant to completion) over the answered
/// requests of an open-loop phase that `include` selects (all when empty).
double latency_ms(const RequestLog& log, double q, const TracePredicate& include);

/// Median per-call ms of Communicator::allreduce_sum over `length` floats in
/// a 2-rank World (the gradient AllReduce of training).
double replay_allreduce_ms(std::size_t length);

// ------------------------------------------------------------------ workloads
void run_train_cd5(const Args& args, Report& report);
void run_single_poisson(const Args& args, Report& report);

}  // namespace perfbench
