#include "probe.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>

namespace perfbench {
namespace {

// The loop has two halves, because neither alone tracks how fast program
// code runs on a shared host. The first is high-IPC integer work with
// unpredictable branches over a 4 KiB table (core throughput, which a busy
// SMT sibling steals); the second makes independent random reads over an
// 8 MiB buffer (last-level cache and memory bandwidth, which neighbours
// share). Measured against COBRA/BIPS ops on a 4-vCPU VM, their sum
// tracked op-time drift about twice as closely as a latency-bound chain.
constexpr std::size_t kTableWords = 512;
constexpr std::size_t kBufferWords = std::size_t{1} << 21;  // 8 MiB of u32
// Fixed work: about 5 ms on a 2020s x86 core. Never tune this per run —
// the P_ref values below are only meaningful for these exact counts.
constexpr std::uint64_t kComputeIterations = 540000;
constexpr std::uint64_t kMemoryIterations = 230000;
// P_ref: the typical probe median of each width on the 4-vCPU Xeon VM the
// benchmark was tuned on. Two probe threads share the memory system, so
// the width-2 probe is slower.
constexpr double kReferenceProbeMs1 = 4.6;
constexpr double kReferenceProbeMs2 = 5.4;
// A probe overlapped by more than this share of background CPU is retried.
constexpr double kBackgroundTolerance = 0.05;
constexpr int kMaxAttempts = 3;

std::uint64_t probe_loop(Probe::Buffers& buf) {
  std::vector<std::uint64_t>& table = buf.table;
  const std::uint64_t tmask = table.size() - 1;
  std::uint64_t a = 1, b = 2, c = 3, d = 4, acc = 0;
  for (std::uint64_t i = 0; i < kComputeIterations; ++i) {
    a = a * 0xbf58476d1ce4e5b9ULL + table[b & tmask];
    b = (b ^ (b >> 27)) * 0x94d049bb133111ebULL + i;
    c += table[(a >> 7) & tmask] ^ d;
    d = ((d << 7) | (d >> 57)) + c;
    if ((a ^ c) & 1) {
      acc += b;
    } else {
      acc ^= d;
    }
    table[(c >> 3) & tmask] += a;
  }
  const std::vector<std::uint32_t>& memory = buf.memory;
  const std::uint64_t mmask = memory.size() - 1;
  std::uint64_t x = acc | 1;
  for (std::uint64_t i = 0; i < kMemoryIterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += memory[(x >> 20) & mmask];
  }
  return acc + a + b + c + d;
}

// Consumes the loop results so the compiler cannot drop the work; both
// probe threads add to it, hence atomic.
std::atomic<std::uint64_t> g_sink{0};

double timespec_s(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return timespec_s(ts);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double reference_probe_ms(int width) {
  return width > 1 ? kReferenceProbeMs2 : kReferenceProbeMs1;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Probe::Probe()
    : main_{std::vector<std::uint64_t>(kTableWords, 3),
            std::vector<std::uint32_t>(kBufferWords, 1)},
      helper_buffers_{std::vector<std::uint64_t>(kTableWords, 3),
                      std::vector<std::uint32_t>(kBufferWords, 1)},
      helper_([this] { helper_main(); }) {}

Probe::~Probe() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  helper_.join();
}

void Probe::helper_main() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    const double c0 = thread_cpu_s();
    g_sink.fetch_add(probe_loop(helper_buffers_), std::memory_order_relaxed);
    const double c1 = thread_cpu_s();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      helper_cpu_s_ = c1 - c0;
      finished_ = seen;
    }
    cv_.notify_all();
  }
}

double Probe::run_once(int width, double* background_ms) {
  const double p0 = process_cpu_s();
  const double w0 = now_s();
  std::uint64_t ticket = 0;
  if (width > 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    ticket = ++generation_;
  }
  if (width > 1) cv_.notify_all();
  const double c0 = thread_cpu_s();
  g_sink.fetch_add(probe_loop(main_), std::memory_order_relaxed);
  double own_cpu = thread_cpu_s() - c0;
  if (width > 1) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return finished_ == ticket; });
    own_cpu += helper_cpu_s_;
  }
  const double wall_ms = (now_s() - w0) * 1e3;
  // getrusage's tick-scaled split can trail the thread clocks by a few
  // microseconds; only a clear excess counts as background work.
  const double excess_ms = (process_cpu_s() - p0 - own_cpu) * 1e3;
  *background_ms = std::max(0.0, excess_ms);
  return wall_ms;
}

Probe::Sample Probe::run(int width) {
  Sample sample;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    double background = 0.0;
    sample.ms = run_once(width, &background);
    background_ms_ += background;
    sample.quiet = background <= kBackgroundTolerance * sample.ms * width;
    if (sample.quiet) break;
    if (attempt + 1 < kMaxAttempts) ++retries_;
  }
  if (!sample.quiet) ++unquiet_;
  samples_.push_back(sample.ms);
  return sample;
}

double CalibratedClock::local_probe_ms() const {
  std::vector<double> sorted = recent_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

}  // namespace perfbench
