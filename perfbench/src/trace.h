// Span recorder and the benchmark's own arithmetic (percentiles, self
// time, wall-clock attribution).
//
// Spans are recorded only at public call boundaries of the library, from
// the decorators in decorators.h and the workload harness. Each thread
// appends to its own buffer; nothing is written out until the run ends.
// A span names its parent: the innermost open span on the same thread, or,
// for a span opened on a pool worker with nothing open on that thread, the
// innermost span open on the driving (main) thread at that moment. Spans
// of one step, window or event share a group id: the id of the outermost
// span on the driving thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int32_t name = 0;
  std::int32_t thread = 0;
  std::int64_t start = 0;
  std::int64_t end = -1;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: no parent (outermost on the main thread)
  std::int64_t group = -1;
};

/// Process-wide span recorder. Off until enable(); while off, begin/end
/// cost one relaxed load.
class Tracer {
 public:
  static Tracer& get();

  /// Starts recording; the calling thread becomes the main thread.
  void enable();
  void disable();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  /// Drops every recorded span (buffers of live threads stay registered).
  void clear();

  /// Stable small integer for a span name.
  std::int32_t intern(std::string_view name);
  const std::string& name(std::int32_t id) const;
  std::vector<std::string> names() const;

  std::int64_t begin(std::int32_t name);
  void end(std::int64_t id);

  /// Every recorded span, all threads (call only while no thread records).
  std::vector<Span> collect() const;

 private:
  struct ThreadBuf {
    std::int32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::int64_t> stack;  ///< open spans, local indices
  };
  ThreadBuf& buf();

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;  ///< guards bufs_ and names_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::vector<std::string> names_;
  /// Innermost open span (and its group) on the main thread; read by
  /// workers whose own stack is empty.
  std::atomic<std::int64_t> ambient_{-1};
  std::atomic<std::int64_t> ambient_group_{-1};
};

/// RAII span; a no-op while the tracer is off.
class Scope {
 public:
  explicit Scope(std::int32_t name) {
    Tracer& t = Tracer::get();
    if (t.on()) id_ = t.begin(name);
  }
  ~Scope() {
    if (id_ >= 0) Tracer::get().end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t id_ = -1;
};

// ---- Arithmetic (unit-tested in tests/test_arithmetic.cpp) ----

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// The highest percentile of {50, 75, 90, 95, 99, 99.9} that leaves at
/// least ten samples of `n` strictly beyond its nearest rank; 0 when even
/// the median leaves fewer than ten (n < 20).
double tail_level(std::size_t n);

/// Length of [a, b) covered by the union of `intervals` (each clipped to
/// [a, b)); overlapping intervals count once.
std::int64_t covered_ns(std::int64_t a, std::int64_t b,
                        std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

/// Per-name totals over a set of spans.
struct LayerRow {
  std::string name;
  std::int64_t calls = 0;
  double total_ms = 0.0;  ///< span durations, summed over threads
  double self_ms = 0.0;   ///< duration minus the union of its children's intervals
  double wall_ms = 0.0;   ///< share of the timed phase attributed to this name
};

struct Breakdown {
  std::vector<LayerRow> rows;  ///< sorted by wall_ms, largest first
  double phase_ms = 0.0;
  double outside_ms = 0.0;     ///< main-thread time inside the phase but in no span
  /// Smallest attributed value (must not be negative) and the absolute
  /// gap between phase_ms and outside_ms + sum of wall_ms.
  double min_wall_ms = 0.0;
  double sum_gap_ms = 0.0;
  std::int32_t worker_threads = 0;
};

/// Splits the timed phase [phase_start, phase_end) on the main thread
/// (thread 0) over span names. At each instant the main thread's innermost
/// open span owns the time, unless pool workers are busy under it: then
/// the instant is split evenly over the worker threads, each share going
/// to that worker's innermost open span, or back to the main thread's span
/// when that worker is idle. Every instant is attributed once, so the rows
/// plus outside_ms add up to phase_ms.
Breakdown breakdown(const std::vector<Span>& spans,
                    const std::vector<std::string>& names, std::int64_t phase_start,
                    std::int64_t phase_end);

}  // namespace pb
