// Process-wide metrics: a registry of named counters, gauges and
// fixed-bucket latency histograms (DESIGN.md §11).
//
// Hot paths (pairings, multi-exps, shard lookups, frame sends) record
// through std::atomic cells — counters shard their cells across cache
// lines so concurrent writers do not bounce a single line. The registry
// mutex is touched only when a metric handle is first interned; callers
// cache the returned reference (handles live until process exit). An
// object that reports its own count of an event holds an
// InstanceCounter, which feeds the registry series in the same call.
//
// Snapshots are pull-based: collect() sums the cells and then runs the
// registered collector callbacks, which let subsystems that keep their
// own structured stats (ChannelMeter totals, CloudServer shard stats,
// CloudSystem health) contribute point-in-time gauges. The result
// renders as a Prometheus-style text exposition via prometheus_text().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace maabe::telemetry {

/// Monotonic counter. add() is lock-free and wait-free: each thread
/// hashes to one of kCells cache-line-sized cells and does a relaxed
/// fetch_add there; value() sums the cells (so a concurrent read may
/// miss in-flight adds, but never tears below a previously-read value
/// of any single cell).
class Counter {
 public:
  void add(uint64_t delta) noexcept {
    cells_[cell_index()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  uint64_t value() const noexcept {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class MetricsRegistry;
  Counter() = default;

  static constexpr size_t kCells = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  static size_t cell_index() noexcept;

  Cell cells_[kCells];
};

/// Last-write-wins signed value (queue depths, sizes).
class Gauge {
 public:
  void set(int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket histogram. observe() is lock-free: a binary search over
/// the (immutable) bounds plus three relaxed fetch_adds. Bounds are
/// cumulative upper bounds in ascending order; an implicit +Inf bucket
/// catches the tail, matching Prometheus `le` semantics.
class Histogram {
 public:
  void observe(uint64_t v) noexcept;

  const std::vector<uint64_t>& bounds() const { return bounds_; }

  struct Data {
    std::vector<uint64_t> bounds;  ///< upper bounds (no +Inf entry)
    std::vector<uint64_t> counts;  ///< per-bucket, size = bounds.size() + 1
    uint64_t count = 0;            ///< total observations
    uint64_t sum = 0;              ///< sum of observed values
  };
  Data data() const;

  /// Default bounds for nanosecond latencies: 1us .. 1s, x4 steps.
  static std::vector<uint64_t> latency_ns_bounds();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<uint64_t> bounds);

  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Point-in-time view of every metric, plus collector contributions.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram::Data> histograms;

  /// 0 / absent-safe lookups (missing names are not an error).
  uint64_t counter(const std::string& name) const;
  int64_t gauge(const std::string& name) const;

  /// Collector API: merge a gauge contribution (adds to an existing
  /// value so several CloudSystems in one process sum naturally).
  void add_gauge(const std::string& name, int64_t v);

  /// Prometheus text exposition: `# TYPE` lines, counters suffixed
  /// `_total` by convention of the recording site, histograms expanded
  /// to `_bucket{le="..."}` / `_sum` / `_count` series.
  std::string prometheus_text() const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry (never destroyed; safe during static
  /// teardown of other objects).
  static MetricsRegistry& global();

  /// Intern a metric by name. Repeated calls with the same name return
  /// the same handle; the reference stays valid for the process
  /// lifetime. A histogram's bounds are fixed by the first caller.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<uint64_t> bounds = {});

  /// Snapshot-time contributions from subsystems with structured stats.
  /// The callback runs with the registry mutex RELEASED (under a
  /// dedicated collector mutex), so it may read state guarded by locks
  /// that are themselves held around metric updates — e.g. a queue
  /// mutex held while a handler bumps a counter — without creating a
  /// lock-order cycle. It must not call collect() or
  /// register_collector() re-entrantly.
  using Collector = std::function<void(Snapshot&)>;

  /// RAII deregistration: the collector stops being invoked when the
  /// token is destroyed (CloudSystem holds one for its lifetime).
  class CollectorToken {
   public:
    CollectorToken() = default;
    CollectorToken(CollectorToken&& o) noexcept;
    CollectorToken& operator=(CollectorToken&& o) noexcept;
    ~CollectorToken() { reset(); }
    void reset();

   private:
    friend class MetricsRegistry;
    CollectorToken(MetricsRegistry* reg, uint64_t id) : reg_(reg), id_(id) {}
    MetricsRegistry* reg_ = nullptr;
    uint64_t id_ = 0;
  };
  [[nodiscard]] CollectorToken register_collector(Collector fn);

  Snapshot collect() const;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  friend class CollectorToken;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;

  // Collectors live under their own mutex, never taken by the metric
  // interning above: collect() runs the callbacks holding only this
  // one, and CollectorToken::reset() blocking on it preserves the
  // "never invoked after reset" guarantee.
  mutable std::mutex collector_mu_;
  std::map<uint64_t, Collector> collectors_;
  uint64_t next_collector_id_ = 1;
};

/// One object's count of an event that also feeds the process-wide
/// series of the same name: add() bumps a relaxed per-instance atomic
/// and the interned registry Counter, so each event is one call, the
/// object reads its exact count back with value(), and the registry
/// series stays the monotonic sum over every instance in the process
/// (several CloudSystems can share one process). Several instance
/// counters may feed one series.
class InstanceCounter {
 public:
  explicit InstanceCounter(std::string_view series)
      : series_(MetricsRegistry::global().counter(series)) {}

  void add(uint64_t delta) noexcept {
    own_.fetch_add(delta, std::memory_order_relaxed);
    series_.add(delta);
  }
  void inc() noexcept { add(1); }
  uint64_t value() const noexcept { return own_.load(std::memory_order_relaxed); }

  InstanceCounter(const InstanceCounter&) = delete;
  InstanceCounter& operator=(const InstanceCounter&) = delete;

 private:
  Counter& series_;
  std::atomic<uint64_t> own_{0};
};

/// Per-op timing of individual pairing-layer calls (pair, g^k, ...).
/// Off by default: a clock read per group operation costs a few percent
/// on the test curve, so only counters run unconditionally and the
/// latency histograms are gated behind this flag (`maabe-cli
/// --metrics-out` and the benches turn it on).
bool op_timing_enabled() noexcept;
void set_op_timing(bool on) noexcept;

}  // namespace maabe::telemetry
