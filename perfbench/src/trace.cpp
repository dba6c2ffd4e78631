#include "trace.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

namespace pb {

namespace {

constexpr int kThreadShift = 40;
constexpr std::int64_t kLocalMask = (std::int64_t{1} << kThreadShift) - 1;

}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

// The tracer owns every buffer it hands out, so spans recorded by a pool
// worker stay readable after the worker's thread has exited.
Tracer::ThreadBuf& Tracer::buf() {
  thread_local ThreadBuf* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    mine = bufs_.back().get();
    mine->thread = static_cast<std::int32_t>(bufs_.size() - 1);
  }
  return *mine;
}

void Tracer::enable() {
  // The first thread to own a buffer is thread 0: the driving thread.
  if (bufs_.empty()) buf();
  on_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { on_.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : bufs_) {
    b->spans.clear();
    b->spans.shrink_to_fit();
    b->stack.clear();
  }
  ambient_.store(-1);
  ambient_group_.store(-1);
}

std::int32_t Tracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::int32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::int32_t>(names_.size() - 1);
}

const std::string& Tracer::name(std::int32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.at(static_cast<std::size_t>(id));
}

std::vector<std::string> Tracer::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

std::int64_t Tracer::begin(std::int32_t name) {
  ThreadBuf& b = buf();
  const auto local = static_cast<std::int64_t>(b.spans.size());
  Span s;
  s.name = name;
  s.thread = b.thread;
  s.id = (static_cast<std::int64_t>(b.thread) << kThreadShift) | local;
  if (!b.stack.empty()) {
    const Span& top = b.spans[static_cast<std::size_t>(b.stack.back())];
    s.parent = top.id;
    s.group = top.group;
  } else if (b.thread == 0) {
    s.group = s.id;
  } else {
    s.parent = ambient_.load(std::memory_order_relaxed);
    s.group = ambient_group_.load(std::memory_order_relaxed);
  }
  b.stack.push_back(local);
  if (b.thread == 0) {
    ambient_.store(s.id, std::memory_order_relaxed);
    ambient_group_.store(s.group, std::memory_order_relaxed);
  }
  b.spans.push_back(s);
  // Read the clock last so the bookkeeping above is not inside the span.
  b.spans.back().start = now_ns();
  return s.id;
}

void Tracer::end(std::int64_t id) {
  const std::int64_t t = now_ns();
  ThreadBuf& b = buf();
  b.spans[static_cast<std::size_t>(id & kLocalMask)].end = t;
  b.stack.pop_back();
  if (b.thread == 0) {
    if (b.stack.empty()) {
      ambient_.store(-1, std::memory_order_relaxed);
      ambient_group_.store(-1, std::memory_order_relaxed);
    } else {
      const Span& top = b.spans[static_cast<std::size_t>(b.stack.back())];
      ambient_.store(top.id, std::memory_order_relaxed);
      ambient_group_.store(top.group, std::memory_order_relaxed);
    }
  }
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : bufs_) out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

namespace {

/// Nearest rank of percentile p among n samples (1-based); the epsilon
/// keeps e.g. 99.9% of 10000 at rank 9990 despite binary rounding.
std::size_t nearest_rank(double p, std::size_t n) {
  return static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::clamp<std::size_t>(nearest_rank(p, v.size()), 1, v.size());
  return v[rank - 1];
}

double tail_level(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9})
    if (n >= nearest_rank(p, n) + 10) best = p;
  return best;
}

std::int64_t covered_ns(std::int64_t a, std::int64_t b,
                        std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, a);
    iv.second = std::min(iv.second, b);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = a;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    const std::int64_t from = std::max(s, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return covered;
}

namespace {

/// Step function of one thread's innermost open span: at `time` the
/// innermost span becomes `span` (an index into the span vector, or -1).
struct Change {
  std::int64_t time;
  std::int64_t span;
};

std::vector<Change> innermost_timeline(const std::vector<Span>& spans,
                                       const std::vector<std::size_t>& order,
                                       std::int64_t horizon) {
  std::vector<Change> out;
  std::vector<std::size_t> stack;
  const auto end_of = [&](std::size_t i) {
    return spans[i].end < 0 ? horizon : spans[i].end;
  };
  const auto pop_until = [&](std::int64_t t) {
    while (!stack.empty() && end_of(stack.back()) <= t) {
      const std::int64_t at = end_of(stack.back());
      stack.pop_back();
      out.push_back({at, stack.empty() ? -1 : static_cast<std::int64_t>(stack.back())});
    }
  };
  for (const std::size_t i : order) {
    pop_until(spans[i].start);
    out.push_back({spans[i].start, static_cast<std::int64_t>(i)});
    stack.push_back(i);
  }
  pop_until(std::numeric_limits<std::int64_t>::max());
  return out;
}

}  // namespace

Breakdown breakdown(const std::vector<Span>& spans, const std::vector<std::string>& names,
                    std::int64_t phase_start, std::int64_t phase_end) {
  Breakdown out;
  out.phase_ms = static_cast<double>(phase_end - phase_start) / 1e6;

  // Self time: duration minus the union of the children's intervals
  // (children may run on other threads and overlap each other).
  std::unordered_map<std::int64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto it = by_id.find(s.parent);
    if (it != by_id.end()) kids[it->second].push_back({s.start, s.end < 0 ? phase_end : s.end});
  }
  std::map<std::int32_t, LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t e = s.end < 0 ? phase_end : s.end;
    LayerRow& r = rows[s.name];
    r.calls += 1;
    r.total_ms += static_cast<double>(e - s.start) / 1e6;
    r.self_ms += static_cast<double>(e - s.start - covered_ns(s.start, e, kids[i])) / 1e6;
  }

  // Wall attribution over the merged per-thread innermost timelines.
  std::map<std::int32_t, std::vector<std::size_t>> per_thread;
  for (std::size_t i = 0; i < spans.size(); ++i) per_thread[spans[i].thread].push_back(i);
  std::vector<std::int32_t> threads;
  std::vector<std::vector<Change>> lines;
  for (auto& [t, order] : per_thread) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return spans[a].start < spans[b].start; });
    threads.push_back(t);
    lines.push_back(innermost_timeline(spans, order, phase_end));
  }
  std::size_t main_idx = threads.size();
  for (std::size_t k = 0; k < threads.size(); ++k)
    if (threads[k] == 0) main_idx = k;
  const std::size_t workers = threads.size() - (main_idx < threads.size() ? 1 : 0);
  out.worker_threads = static_cast<std::int32_t>(workers);

  std::vector<std::int64_t> times = {phase_start, phase_end};
  for (const auto& line : lines)
    for (const Change& c : line)
      if (c.time > phase_start && c.time < phase_end) times.push_back(c.time);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  std::vector<std::size_t> cursor(lines.size(), 0);
  std::vector<std::int64_t> current(lines.size(), -1);
  std::map<std::int32_t, double> wall;
  double outside_ns = 0.0;
  const auto credit = [&](std::int64_t span, double ns) {
    if (span < 0) {
      outside_ns += ns;
    } else {
      wall[spans[static_cast<std::size_t>(span)].name] += ns;
    }
  };
  for (std::size_t i = 0; i + 1 < times.size(); ++i) {
    const std::int64_t t0 = times[i];
    const auto dt = static_cast<double>(times[i + 1] - t0);
    for (std::size_t k = 0; k < lines.size(); ++k) {
      while (cursor[k] < lines[k].size() && lines[k][cursor[k]].time <= t0) {
        current[k] = lines[k][cursor[k]].span;
        ++cursor[k];
      }
    }
    const std::int64_t main_span = main_idx < lines.size() ? current[main_idx] : -1;
    bool busy = false;
    for (std::size_t k = 0; k < lines.size(); ++k)
      if (k != main_idx && current[k] >= 0) busy = true;
    if (!busy) {
      credit(main_span, dt);
      continue;
    }
    const double share = dt / static_cast<double>(workers);
    for (std::size_t k = 0; k < lines.size(); ++k) {
      if (k == main_idx) continue;
      credit(current[k] >= 0 ? current[k] : main_span, share);
    }
  }

  double sum = outside_ns;
  for (auto& [name, row] : rows) {
    row.name = names.at(static_cast<std::size_t>(name));
    row.wall_ms = wall[name] / 1e6;
    sum += wall[name];
  }
  out.outside_ms = outside_ns / 1e6;
  out.min_wall_ms = out.outside_ms;
  for (auto& [name, row] : rows) {
    out.min_wall_ms = std::min(out.min_wall_ms, row.wall_ms);
    out.rows.push_back(row);
  }
  out.sum_gap_ms = std::abs(sum / 1e6 - out.phase_ms);
  std::sort(out.rows.begin(), out.rows.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.wall_ms > b.wall_ms; });
  return out;
}

}  // namespace pb
