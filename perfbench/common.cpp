#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

// ------------------------------------------------------- allocation counting
// Replacing the global allocation functions in the benchmark binary counts
// every allocation the library makes, without any hook inside the library.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
thread_local bool t_uncounted = false;

void count_one() {
  if (g_count_allocs.load(std::memory_order_relaxed) && !t_uncounted)
    g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_one();
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count_one();
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

void set_alloc_counting(bool on) { g_count_allocs.store(on, std::memory_order_relaxed); }
std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
UncountedThread::UncountedThread() { t_uncounted = true; }
UncountedThread::~UncountedThread() { t_uncounted = false; }

// -------------------------------------------------------------------- report
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"p50_ms", "ms"}};

const std::vector<MetricDef> kPerLayer = {
    {"graph.build_s", "s"},
    {"partition.libra_s", "s"},
    {"partition.halo_plan_s", "s"},
    {"partition.replication_factor", "ratio"},
    {"comm.halo_bytes_per_epoch", "bytes"},
    {"comm.messages_per_epoch", "count"},
    {"comm.allreduce_ms", "ms"},
    {"kernels.aggregate_ms", "ms"},
    {"kernels.aggregate_gbps", "GB/s"},
    {"nn.gemm_ms", "ms"},
    {"nn.gemm_gflops", "GFLOP/s"},
    {"train.lat_ms", "ms"},
    {"train.rat_ms", "ms"},
    {"train.rest_ms", "ms"},
    {"train.epochs_per_s", "1/s"},
    {"sampling.sample_us", "us"},
    {"sampling.allocs_per_request", "count"},
    {"serve.throughput_per_s", "1/s"},
    {"serve.batch_wait_ms", "ms"},
    {"serve.mean_batch", "count"},
    {"serve.cpu_ms_per_request", "ms"},
    {"serve.allocs_per_request", "count"},
    {"feature_cache.gather_us", "us"},
    {"feature_cache.copy_us", "us"},
    {"feature_cache.hit_ratio", "ratio"},
    {"model.forward_us_b1", "us"},
    {"model.forward_us_b16", "us"},
    {"tower.added_p50_ms", "ms"},
    {"sharded.halo_wait_ms", "ms"},
    {"sharded.halo_rows_per_request", "count"},
    {"sharded.cpu_ms_per_request", "ms"},
    {"stream.publish_ms", "ms"},
    {"stream.dirty_per_delta", "count"},
    {"obs.trace_overhead_ms", "ms"},
    {"tail.p95_ms", "ms"},
    {"tail.p99_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"host.copy_gbps", "GB/s"},
};

void Report::set(const std::string& name, double value) {
  const auto known = [&](const std::vector<MetricDef>& defs) {
    return std::any_of(defs.begin(), defs.end(),
                       [&](const MetricDef& d) { return name == d.name; });
  };
  if (!known(kEndToEnd) && !known(kPerLayer))
    throw std::logic_error("Report: unknown metric " + name);
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0;
  }
  std::printf("metric %s = %.6g\n", name.c_str(), value);
  values_.push_back({name, value});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
  std::fflush(stdout);
}

std::string Report::json(bool trace) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  const std::vector<MetricDef>& defs = trace ? kPerLayer : kEndToEnd;
  char value[64];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = std::find_if(values_.rbegin(), values_.rend(),
                                 [&](const auto& v) { return v.first == defs[i].name; });
    if (it == values_.rend() && !trace)
      throw std::logic_error(std::string("Report: end-to-end metric not set: ") + defs[i].name);
    std::snprintf(value, sizeof(value), "%.17g", it == values_.rend() ? 0.0 : it->second);
    out << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": " << value
        << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------- statistics
double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// --------------------------------------------------------------- host probes
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double host_copy_gbps() {
  constexpr std::size_t kBytes = 32u << 20;
  std::vector<char> src(kBytes, 1), dst(kBytes, 0);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_seconds();
    std::memcpy(dst.data(), src.data(), kBytes);
    const double t1 = now_seconds();
    src[static_cast<std::size_t>(rep)] = dst[kBytes - 1 - static_cast<std::size_t>(rep)];
    rates.push_back(2.0 * static_cast<double>(kBytes) / (t1 - t0) * 1e-9);
  }
  return median(rates);
}

// -------------------------------------------------------------------- inputs
std::vector<double> poisson_arrivals(double rate, double duration, InputRng& rng) {
  std::exponential_distribution<double> gap(rate);
  std::vector<double> out;
  for (double t = gap(rng); t < duration; t += gap(rng)) out.push_back(t);
  return out;
}

std::vector<double> poisson_instants_fixed_count(double rate, double duration, InputRng& rng) {
  std::uniform_real_distribution<double> at(0.0, duration);
  std::vector<double> out(static_cast<std::size_t>(std::llround(rate * duration)));
  for (double& t : out) t = at(rng);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> mmpp_arrivals(double rate, double duration, double hold_burst,
                                  InputRng& rng) {
  // Quiet rate r/4, burst rate 4r; the time share p of the burst state
  // solves p*4r + (1-p)*r/4 = r, i.e. p = 1/5, so hold_quiet = 4 * hold_burst.
  const double rates[2] = {rate / 4.0, rate * 4.0};
  const double holds[2] = {4.0 * hold_burst, hold_burst};
  std::vector<double> out;
  int state = 0;
  double t = 0;
  while (t < duration) {
    const double end = std::min(duration, t + std::exponential_distribution<double>(
                                                  1.0 / holds[state])(rng));
    std::exponential_distribution<double> gap(rates[state]);
    for (double a = t + gap(rng); a < end; a += gap(rng)) out.push_back(a);
    t = end;
    state ^= 1;
  }
  return out;
}

ZipfVertices::ZipfVertices(vid_t n, double s, InputRng& rng) {
  cdf_.resize(static_cast<std::size_t>(n));
  double sum = 0;
  for (std::size_t r = 0; r < cdf_.size(); ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  vertex_of_rank_.resize(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) vertex_of_rank_[static_cast<std::size_t>(v)] = v;
  std::shuffle(vertex_of_rank_.begin(), vertex_of_rank_.end(), rng);
}

vid_t ZipfVertices::draw(InputRng& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, cdf_.back())(rng);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t rank = std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                                 cdf_.size() - 1);
  return vertex_of_rank_[rank];
}

// ----------------------------------------------------------- load generators
RequestLog::RequestLog(std::vector<vid_t> targets, std::size_t width_, bool traced)
    : vertex(std::move(targets)),
      due(vertex.size(), 0),
      done(vertex.size(), 0),
      late(vertex.size(), 0),
      answered(vertex.size(), 0),
      traces(traced ? vertex.size() : 0),
      width(width_),
      kept((vertex.size() / kKeepStride + 1) * width, 0),
      kept_size(vertex.size() / kKeepStride + 1, 0) {}

namespace {

std::function<void(distgnn::serve::InferResult&&)> completion(RequestLog* log, std::size_t i) {
  // Pointer + index: 16 bytes, stored inside the std::function (no heap).
  return [log, i](distgnn::serve::InferResult&& result) {
    log->done[i] = now_seconds();
    if (i % RequestLog::kKeepStride == 0) {
      const std::size_t k = i / RequestLog::kKeepStride;
      const std::size_t n = std::min(result.logits.size(), log->width);
      std::copy(result.logits.begin(), result.logits.begin() + static_cast<std::ptrdiff_t>(n),
                log->kept.begin() + static_cast<std::ptrdiff_t>(k * log->width));
      log->kept_size[k] = static_cast<std::uint32_t>(result.logits.size());
    }
    log->answered[i] = 1;
    log->completed.fetch_add(1, std::memory_order_acq_rel);
    if (log->windowed.load(std::memory_order_relaxed)) log->free_slot();
  };
}

void wait_for_completions(const RequestLog& log) {
  const std::uint64_t expected = log.submitted - log.rejected;
  while (log.completed.load(std::memory_order_acquire) < expected)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

distgnn::serve::RequestMeta meta_for(RequestLog& log, std::size_t i, bool traced,
                                     double submit_time) {
  distgnn::serve::RequestMeta meta;
  if (traced) {
    const auto begin = std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(submit_time)));
    log.traces[i] = std::make_shared<distgnn::obs::TraceContext>(
        i, distgnn::serve::kDefaultTenant, static_cast<std::int64_t>(log.vertex[i]), begin);
    meta.trace = log.traces[i];
  }
  return meta;
}

}  // namespace

void wait_until(double t) {
  while (true) {
    const double remaining = t - now_seconds();
    if (remaining <= 0) return;
    if (remaining > 300e-6)
      std::this_thread::sleep_for(std::chrono::duration<double>(remaining - 150e-6));
  }
}

void schedule(RequestLog& log, double start, const std::vector<double>& offsets) {
  for (std::size_t i = 0; i < log.size(); ++i) log.due[i] = start + offsets[i];
}

void run_open_loop(distgnn::serve::ServingBackend& backend, RequestLog& log,
                   const TracePredicate& traced) {
  for (std::size_t i = 0; i < log.size(); ++i) {
    wait_until(log.due[i]);
    const double sent = now_seconds();
    log.late[i] = sent - log.due[i];
    const distgnn::serve::RequestMeta meta = meta_for(log, i, traced && traced(i), sent);
    ++log.submitted;
    if (!backend.submit(log.vertex[i], meta, completion(&log, i))) ++log.rejected;
  }
  wait_for_completions(log);
}

void run_window(distgnn::serve::ServingBackend& backend, RequestLog& log, int window,
                double end_time) {
  log.windowed.store(true, std::memory_order_relaxed);
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i >= static_cast<std::size_t>(window) && (i - window) % RequestLog::kRefill == 0)
      log.window.acquire();
    const double sent = now_seconds();
    if (sent >= end_time) break;
    log.due[i] = sent;
    ++log.submitted;
    if (!backend.submit(log.vertex[i], distgnn::serve::RequestMeta{}, completion(&log, i))) {
      ++log.rejected;
      log.free_slot();
    }
  }
  wait_for_completions(log);
  log.windowed.store(false, std::memory_order_relaxed);
}

double latency_ms(const RequestLog& log, double q, const TracePredicate& include) {
  std::vector<double> ms;
  ms.reserve(log.submitted);
  for (std::size_t i = 0; i < log.submitted; ++i)
    if (log.answered[i] && (!include || include(i)))
      ms.push_back((log.done[i] - log.due[i]) * 1e3);
  return quantile(std::move(ms), q);
}

}  // namespace perfbench
