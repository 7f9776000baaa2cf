// Calibration probe: a fixed compute loop timed around every measured
// interval, so timings can be expressed in "calibrated seconds" that
// cancel slow drifts of the machine's speed (frequency scaling, noisy
// neighbours on a shared host).
//
//   calibrated = raw × (P_ref / P_local)^k
//
// P_local comes from the probes just before and just after the interval
// (see CalibratedClock); P_ref is a constant per probe width
// (reference_probe_ms), and k is each workload's sensitivity: how much more
// strongly its ops feel the host's contention than the probe does. A probe
// of width 2 runs the loop on the calling thread and on one persistent
// helper thread at once, for intervals whose work itself runs on two
// threads.
//
// Quiescence guard: every probe compares the process CPU time consumed
// during the probe (getrusage) with the CPU time of the probe threads
// themselves. Any excess is other program work running concurrently —
// a leftover worker would slow the probe and so make the interval look
// faster than it was. The excess is accumulated and reported; a probe that
// saw more than 5% of its own CPU time in background work is retried, and
// one that still does after its retries is marked unquiet: it stays out of
// P_local, and the interval it brackets counts as failed.
#pragma once

#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// CPU time of the calling thread, seconds.
double thread_cpu_s();
/// CPU time of the whole process (user + system, getrusage), seconds.
double process_cpu_s();
/// Monotonic wall clock, seconds.
double now_s();

/// P_ref: the typical wall time, ms, of a probe of `width` (1 or 2) on the
/// host the benchmark was tuned on.
double reference_probe_ms(int width);

class Probe {
 public:
  /// Per-thread working memory of the loop, allocated once.
  struct Buffers {
    std::vector<std::uint64_t> table;
    std::vector<std::uint32_t> memory;
  };

  Probe();
  ~Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  struct Sample {
    double ms = 0.0;     ///< wall time of the loop
    bool quiet = true;   ///< false: background work overlapped every attempt
  };

  /// Runs the fixed loop on `width` threads (1 or 2), retrying while
  /// background work overlaps it.
  Sample run(int width);

  /// All probe results so far, ms.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }
  /// Summed CPU time of program work that overlapped a probe, ms.
  [[nodiscard]] double background_ms() const { return background_ms_; }
  /// Probes repeated because background work overlapped them.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Probes that saw background work on every attempt.
  [[nodiscard]] std::uint64_t unquiet() const { return unquiet_; }

 private:
  double run_once(int width, double* background_ms);
  void helper_main();

  Buffers main_;
  Buffers helper_buffers_;
  std::vector<double> samples_;
  double background_ms_ = 0.0;
  std::uint64_t retries_ = 0;
  std::uint64_t unquiet_ = 0;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;  // guarded by mutex_
  std::uint64_t finished_ = 0;    // guarded by mutex_
  double helper_cpu_s_ = 0.0;     // guarded by mutex_
  bool stop_ = false;             // guarded by mutex_
  std::thread helper_;            // last: uses every member above
};

/// One measured interval: raw and calibrated seconds.
struct Timed {
  double raw_s = 0.0;
  double cal_s = 0.0;
  double probe_ms = 0.0;  ///< P_local
  bool quiet = true;      ///< both bracketing probes were quiet
};

/// Brackets intervals with probes of one width. Back-to-back intervals
/// share the probe between them; call invalidate() after untimed work so
/// the next interval takes a fresh "before" probe.
///
/// P_local is the median of this clock's last kWindow quiet probes, which
/// include the ones just before and just after the interval when those were
/// quiet. The host's speed drifts over tens of seconds, while a single 5 ms
/// probe also carries jitter of its own; the median over about a second
/// follows the drift without adding that jitter to every op.
class CalibratedClock {
 public:
  static constexpr std::size_t kWindow = 9;

  /// `exponent` is the workload's k; P_ref is reference_probe_ms(width).
  CalibratedClock(Probe& probe, int width, double exponent)
      : probe_(probe),
        width_(width),
        p_ref_ms_(reference_probe_ms(width)),
        exponent_(exponent) {}

  template <typename F>
  Timed time(F&& work) {
    if (!have_before_) sample();
    const bool quiet_before = last_quiet_;
    const double t0 = now_s();
    work();
    const double raw = now_s() - t0;
    sample();
    Timed out;
    out.raw_s = raw;
    out.probe_ms = local_probe_ms();
    out.cal_s = calibrate(raw, out.probe_ms);
    out.quiet = quiet_before && last_quiet_;
    return out;
  }

  /// Converts a raw duration measured under P_local = `probe_ms`.
  [[nodiscard]] double calibrate(double raw_s, double probe_ms) const {
    return raw_s * std::pow(p_ref_ms_ / probe_ms, exponent_);
  }

  void invalidate() { have_before_ = false; }

 private:
  void sample() {
    const Probe::Sample s = probe_.run(width_);
    last_quiet_ = s.quiet;
    // An unquiet probe enters the window only while it is empty, so that
    // P_local is defined; the interval it brackets fails anyway.
    if (s.quiet || recent_.empty()) recent_.push_back(s.ms);
    if (recent_.size() > kWindow) recent_.erase(recent_.begin());
    have_before_ = true;
  }
  [[nodiscard]] double local_probe_ms() const;

  Probe& probe_;
  int width_;
  double p_ref_ms_;
  double exponent_;
  bool have_before_ = false;
  bool last_quiet_ = true;
  std::vector<double> recent_;
};

}  // namespace perfbench
