#include "engine/engine.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <thread>

#include "common/errors.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace maabe::engine {

using pairing::G1;
using pairing::Group;
using pairing::GT;
using pairing::Zr;

namespace {

// Set inside pool workers so reentrant parallel_for calls run inline
// instead of deadlocking on the (busy) pool.
thread_local bool tl_in_worker = false;

std::atomic<int> g_default_override{0};

/// Registry handles for the engine's global counters/histograms,
/// interned once (the registry returns process-lifetime references).
struct EngineMetrics {
  telemetry::Counter& pairings;
  telemetry::Counter& g1_exps;
  telemetry::Counter& gt_exps;
  telemetry::Counter& miller_loops;
  telemetry::Counter& final_exps;
  telemetry::Counter& batches;
  telemetry::Counter& tasks;
  telemetry::Counter& table_builds;
  telemetry::Counter& table_hits;
  telemetry::Counter& precomp_builds;
  telemetry::Counter& precomp_hits;
  telemetry::Counter& batch_wall_ns;
  telemetry::Counter& sheds;
  telemetry::Histogram& pair_batch_ns;
  telemetry::Histogram& multi_exp_g1_ns;
  telemetry::Histogram& multi_exp_gt_ns;
  telemetry::Histogram& g_pow_batch_ns;
  telemetry::Histogram& egg_pow_batch_ns;

  static EngineMetrics& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static EngineMetrics* m = new EngineMetrics{
        reg.counter("maabe_engine_pairings_total"),
        reg.counter("maabe_engine_g1_exps_total"),
        reg.counter("maabe_engine_gt_exps_total"),
        reg.counter("maabe_engine_miller_loops_total"),
        reg.counter("maabe_engine_final_exps_total"),
        reg.counter("maabe_engine_batches_total"),
        reg.counter("maabe_engine_tasks_total"),
        reg.counter("maabe_engine_table_builds_total"),
        reg.counter("maabe_engine_table_hits_total"),
        reg.counter("maabe_engine_precomp_builds_total"),
        reg.counter("maabe_engine_precomp_hits_total"),
        reg.counter("maabe_engine_batch_wall_ns_total"),
        reg.counter("maabe_engine_shed_total"),
        reg.histogram("maabe_engine_pair_batch_ns"),
        reg.histogram("maabe_engine_multi_exp_g1_ns"),
        reg.histogram("maabe_engine_multi_exp_gt_ns"),
        reg.histogram("maabe_engine_g_pow_batch_ns"),
        reg.histogram("maabe_engine_egg_pow_batch_ns"),
    };
    return *m;
  }
};

}  // namespace

EngineStats EngineStats::operator-(const EngineStats& e) const {
  EngineStats d;
  d.pairings = pairings - e.pairings;
  d.g1_exps = g1_exps - e.g1_exps;
  d.gt_exps = gt_exps - e.gt_exps;
  d.miller_loops = miller_loops - e.miller_loops;
  d.final_exps = final_exps - e.final_exps;
  d.batches = batches - e.batches;
  d.tasks = tasks - e.tasks;
  d.table_builds = table_builds - e.table_builds;
  d.table_hits = table_hits - e.table_hits;
  d.precomp_builds = precomp_builds - e.precomp_builds;
  d.precomp_hits = precomp_hits - e.precomp_hits;
  d.wall_ns = wall_ns - e.wall_ns;
  return d;
}

EngineStats& EngineStats::operator+=(const EngineStats& o) {
  pairings += o.pairings;
  g1_exps += o.g1_exps;
  gt_exps += o.gt_exps;
  miller_loops += o.miller_loops;
  final_exps += o.final_exps;
  batches += o.batches;
  tasks += o.tasks;
  table_builds += o.table_builds;
  table_hits += o.table_hits;
  precomp_builds += o.precomp_builds;
  precomp_hits += o.precomp_hits;
  wall_ns += o.wall_ns;
  return *this;
}

// ---------------------------------------------------------------- Pool --

struct CryptoEngine::Pool {
  explicit Pool(int workers) {
    threads.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) threads.emplace_back([this] { worker(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv_work.notify_all();
    for (auto& t : threads) t.join();
  }

  /// Runs fn over [0, total); the caller participates alongside the
  /// workers. One job at a time (job_mu); blocks until every index is
  /// done, then rethrows the first captured exception, if any.
  void run(size_t job_total, const std::function<void(size_t)>& job_fn) {
    std::lock_guard<std::mutex> job_lk(job_mu);
    {
      std::lock_guard<std::mutex> lk(mu);
      fn = &job_fn;
      total = job_total;
      next.store(0, std::memory_order_relaxed);
      error = nullptr;
      pending = threads.size();
      ++job_id;
    }
    cv_work.notify_all();
    process();
    {
      std::unique_lock<std::mutex> lk(mu);
      cv_done.wait(lk, [&] { return pending == 0; });
      fn = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

  void process() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!error) error = std::current_exception();
        next.store(total, std::memory_order_relaxed);  // abandon the rest
      }
    }
  }

  void worker() {
    tl_in_worker = true;
    uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_work.wait(lk, [&] { return stop || job_id != seen; });
        if (stop) return;
        seen = job_id;
      }
      process();
      {
        std::lock_guard<std::mutex> lk(mu);
        if (--pending == 0) cv_done.notify_all();
      }
    }
  }

  std::mutex job_mu;  // serializes run() callers
  std::mutex mu;
  std::condition_variable cv_work, cv_done;
  std::vector<std::thread> threads;
  const std::function<void(size_t)>* fn = nullptr;
  size_t total = 0;
  std::atomic<size_t> next{0};
  size_t pending = 0;
  uint64_t job_id = 0;
  std::exception_ptr error;
  bool stop = false;
};

// ------------------------------------------------------------ LruCache --

/// LRU of window tables for variable bases, keyed by the base's
/// serialized form. A base only pays for table construction after it has
/// been submitted kBuildThreshold times (break-even vs plain
/// exponentiation); until then the entry just tracks its use count.
struct CryptoEngine::LruCache {
  static constexpr size_t kCapacity = 64;
  static constexpr uint64_t kBuildThreshold = 4;

  struct Node {
    Bytes key;
    uint64_t uses = 0;
    std::shared_ptr<const pairing::G1FixedBase> g1;
    std::shared_ptr<const pairing::GtFixedBase> gt;
    std::shared_ptr<const pairing::PairingPrecomp> pair;  // line table
  };
  using List = std::list<Node>;

  std::mutex mu;
  List order;  // front = most recently used
  std::map<Bytes, List::iterator> index;

  /// Bumps the entry for `key` (inserting/evicting as needed) and
  /// returns it, moved to the front.
  Node& touch(const Bytes& key) {
    auto it = index.find(key);
    if (it != index.end()) {
      order.splice(order.begin(), order, it->second);
    } else {
      order.push_front(Node{key, 0, nullptr, nullptr, nullptr});
      index[key] = order.begin();
      if (index.size() > kCapacity) {
        index.erase(order.back().key);
        order.pop_back();
      }
    }
    ++order.front().uses;
    return order.front();
  }
};

// --------------------------------------------------------- CryptoEngine --

// ----------------------------------------------------------- StatCells --

/// Per-engine stat store behind a seqlock: commit_stats() bumps the
/// sequence to odd, applies every field, then bumps back to even;
/// stats() retries until it reads the same even sequence on both sides
/// of the field loads. All accesses are atomics (TSan-clean); the
/// write mutex serializes committers so the odd window stays short.
struct CryptoEngine::StatCells {
  std::mutex write_mu;
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> pairings{0}, g1_exps{0}, gt_exps{0}, miller_loops{0},
      final_exps{0}, batches{0}, tasks{0}, table_builds{0}, table_hits{0},
      precomp_builds{0}, precomp_hits{0}, wall_ns{0};
};

void CryptoEngine::commit_stats(const EngineStats& d) {
  StatCells& c = *stat_cells_;
  {
    std::lock_guard<std::mutex> lk(c.write_mu);
    const uint64_t s = c.seq.load(std::memory_order_relaxed);
    c.seq.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    const auto bump = [](std::atomic<uint64_t>& f, uint64_t v) {
      f.store(f.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
    };
    bump(c.pairings, d.pairings);
    bump(c.g1_exps, d.g1_exps);
    bump(c.gt_exps, d.gt_exps);
    bump(c.miller_loops, d.miller_loops);
    bump(c.final_exps, d.final_exps);
    bump(c.batches, d.batches);
    bump(c.tasks, d.tasks);
    bump(c.table_builds, d.table_builds);
    bump(c.table_hits, d.table_hits);
    bump(c.precomp_builds, d.precomp_builds);
    bump(c.precomp_hits, d.precomp_hits);
    bump(c.wall_ns, d.wall_ns);
    c.seq.store(s + 2, std::memory_order_release);
  }
  EngineMetrics& m = EngineMetrics::get();
  if (d.pairings) m.pairings.add(d.pairings);
  if (d.g1_exps) m.g1_exps.add(d.g1_exps);
  if (d.gt_exps) m.gt_exps.add(d.gt_exps);
  if (d.miller_loops) m.miller_loops.add(d.miller_loops);
  if (d.final_exps) m.final_exps.add(d.final_exps);
  if (d.batches) m.batches.add(d.batches);
  if (d.tasks) m.tasks.add(d.tasks);
  if (d.table_builds) m.table_builds.add(d.table_builds);
  if (d.table_hits) m.table_hits.add(d.table_hits);
  if (d.precomp_builds) m.precomp_builds.add(d.precomp_builds);
  if (d.precomp_hits) m.precomp_hits.add(d.precomp_hits);
  if (d.wall_ns) m.batch_wall_ns.add(d.wall_ns);
}

// ------------------------------------------------------------ BatchScope --

/// Accumulates one batch's stat delta and commits it atomically on
/// scope exit, alongside the per-batch latency histogram observation
/// and (when tracing is on) a span child of the caller's current span.
class CryptoEngine::BatchScope {
 public:
  BatchScope(CryptoEngine& eng, telemetry::Histogram& hist, const char* span_name)
      : eng_(eng), hist_(hist),
        span_(telemetry::Tracer::global().start_span(span_name)),
        start_(std::chrono::steady_clock::now()) {}

  ~BatchScope() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    delta.batches += 1;
    delta.wall_ns += static_cast<uint64_t>(ns);
    hist_.observe(static_cast<uint64_t>(ns));
    if (span_.active()) span_.attr("items", items_);
    eng_.commit_stats(delta);
  }

  void set_items(uint64_t n) { items_ = n; }
  /// Context for pool workers to parent their work on (unused today —
  /// batch items are too fine-grained to span individually).
  telemetry::SpanContext context() const { return span_.context(); }

  EngineStats delta;

 private:
  CryptoEngine& eng_;
  telemetry::Histogram& hist_;
  telemetry::Span span_;
  uint64_t items_ = 0;
  std::chrono::steady_clock::time_point start_;
};

// --------------------------------------------------- admission control --

/// RAII reservation against the engine's bounded submission window.
/// Construction sheds (throws OverloadError) when the window is full;
/// destruction releases the items. `tl_in_worker` calls run inline on a
/// pool thread inside an already-admitted batch, so they bypass the
/// window — counting them again would deadlock a nested sweep against
/// its own parent's reservation.
class CryptoEngine::AdmissionTicket {
 public:
  AdmissionTicket(CryptoEngine& eng, size_t items) : eng_(eng) {
    if (tl_in_worker) return;
    eng_.admit_items(items);
    items_ = items;
  }
  ~AdmissionTicket() {
    if (items_ > 0) eng_.release_items(items_);
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

 private:
  CryptoEngine& eng_;
  size_t items_ = 0;
};

void CryptoEngine::set_admission_limit(size_t items) {
  admission_limit_.store(items, std::memory_order_relaxed);
}

size_t CryptoEngine::admission_limit() const {
  return admission_limit_.load(std::memory_order_relaxed);
}

size_t CryptoEngine::inflight_items() const {
  return inflight_items_.load(std::memory_order_relaxed);
}

uint64_t CryptoEngine::shed_total() const {
  return sheds_.load(std::memory_order_relaxed);
}

void CryptoEngine::admit_items(size_t items) {
  const size_t limit = admission_limit_.load(std::memory_order_relaxed);
  const size_t prior = inflight_items_.fetch_add(items, std::memory_order_relaxed);
  if (limit == 0 || prior + items <= limit) return;
  inflight_items_.fetch_sub(items, std::memory_order_relaxed);
  sheds_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::get().sheds.inc();
  throw OverloadError("CryptoEngine: admission window full (" +
                      std::to_string(prior) + " in flight, limit " +
                      std::to_string(limit) + "): shedding batch of " +
                      std::to_string(items));
}

void CryptoEngine::release_items(size_t items) {
  inflight_items_.fetch_sub(items, std::memory_order_relaxed);
}

// --------------------------------------------------------- construction --

CryptoEngine::CryptoEngine(const Group& grp, int threads)
    : grp_(&grp), threads_(1), cache_(std::make_unique<LruCache>()),
      stat_cells_(std::make_unique<StatCells>()) {
  set_threads(threads);
}

CryptoEngine::~CryptoEngine() = default;

int CryptoEngine::default_threads() {
  const int o = g_default_override.load(std::memory_order_relaxed);
  if (o > 0) return o;
  if (const char* env = std::getenv("MAABE_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void CryptoEngine::set_default_threads(int threads) {
  g_default_override.store(threads > 0 ? threads : 0, std::memory_order_relaxed);
}

CryptoEngine& CryptoEngine::for_group(const Group& grp) {
  struct Slot {
    uint64_t id = 0;
    std::unique_ptr<CryptoEngine> engine;
  };
  static std::mutex reg_mu;
  static std::map<const Group*, Slot> registry;
  std::lock_guard<std::mutex> lk(reg_mu);
  Slot& slot = registry[&grp];
  if (!slot.engine || slot.id != grp.instance_id()) {
    // First sighting, or the address was reused by a new Group after the
    // old one died — either way the engine (and its cached tables, which
    // reference the dead Group's contexts) must be rebuilt.
    slot.engine = std::make_unique<CryptoEngine>(grp);
    slot.id = grp.instance_id();
  }
  return *slot.engine;
}

void CryptoEngine::set_threads(int threads) {
  const int n = threads > 0 ? threads : default_threads();
  std::lock_guard<std::mutex> lk(mu_);
  if (n == threads_ && (pool_ || n == 1)) return;
  pool_.reset();  // joins workers; must not race a running batch
  threads_ = n;
  // Pool holds threads_ - 1 workers; the submitting thread participates.
  if (threads_ > 1) pool_ = std::make_unique<Pool>(threads_ - 1);
}

void CryptoEngine::run_items(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool_ == nullptr || n < 2 || tl_in_worker) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The one place trace context crosses a thread: every item runs under
  // the caller's current span, whichever thread picks it up, so spans
  // opened inside an item join the caller's tree at any thread count.
  const telemetry::SpanContext ctx = telemetry::Tracer::current();
  pool_->run(n, [&](size_t i) {
    telemetry::ContextOverride scope(ctx);
    fn(i);
  });
}

void CryptoEngine::parallel_for(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  AdmissionTicket ticket(*this, n);
  // The sweep span sits beside the items rather than above them (it is
  // not made current): items parent on the caller's span exactly as
  // they would if the caller had looped over them itself.
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const telemetry::SpanContext caller = telemetry::Tracer::current();
  telemetry::Span span = caller.valid() ? tracer.start_child("engine.parallel_for", caller)
                                        : tracer.start_span("engine.parallel_for");
  if (span.active()) span.attr("items", static_cast<uint64_t>(n));
  EngineStats d;
  d.tasks = n;
  commit_stats(d);
  run_items(n, fn);
}

std::vector<GT> CryptoEngine::pair_batch(const std::vector<PairTerm>& terms) {
  AdmissionTicket ticket(*this, terms.size());
  BatchScope scope(*this, EngineMetrics::get().pair_batch_ns, "engine.pair_batch");
  const size_t n = terms.size();
  scope.delta.pairings = n;
  scope.delta.tasks = n;
  scope.set_items(n);
  // Resolve line tables for repeated first arguments under the LRU
  // lock; identity terms pair to 1 without touching the cache.
  std::vector<std::shared_ptr<const pairing::PairingPrecomp>> pre(n);
  {
    std::lock_guard<std::mutex> lk(cache_->mu);
    for (size_t i = 0; i < n; ++i) {
      if (terms[i].a.is_identity() || terms[i].b.is_identity()) continue;
      ++scope.delta.miller_loops;
      ++scope.delta.final_exps;
      LruCache::Node& node = cache_->touch(terms[i].a.to_bytes());
      if (!node.pair && node.uses >= LruCache::kBuildThreshold) {
        node.pair = grp_->pair_precompute(terms[i].a);
        ++scope.delta.precomp_builds;
      }
      if (node.pair) ++scope.delta.precomp_hits;
      pre[i] = node.pair;
    }
  }
  std::vector<GT> out(n);
  run_items(n, [&](size_t i) {
    out[i] = pre[i] ? grp_->miller_reduce(grp_->miller_with(*pre[i], terms[i].b))
                    : grp_->pair(terms[i].a, terms[i].b);
  });
  return out;
}

GT CryptoEngine::pairing_product(const std::vector<PairTerm>& terms) {
  return pairing_power_product(terms, {});
}

GT CryptoEngine::pairing_power_product(const std::vector<PairTerm>& terms,
                                       const std::vector<Zr>& exps) {
  if (!exps.empty() && exps.size() != terms.size())
    throw MathError("pairing_power_product: terms/exps size mismatch");
  AdmissionTicket ticket(*this, terms.size());
  BatchScope scope(*this, EngineMetrics::get().pair_batch_ns,
                   "engine.pairing_product");
  const size_t n = terms.size();
  scope.delta.pairings = n;
  scope.set_items(n);
  // Select the live terms. pair() defines identity inputs as 1, and a
  // zero exponent makes the factor 1 outright; both would inject
  // degenerate values into the shared reduction, so they are skipped —
  // which is exactly what the serial fold multiplies by anyway.
  std::vector<size_t> live;
  live.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (terms[i].a.is_identity() || terms[i].b.is_identity()) continue;
    if (!exps.empty() && exps[i].is_zero()) continue;
    live.push_back(i);
  }
  if (live.empty()) return grp_->gt_one();
  scope.delta.tasks = live.size();
  scope.delta.miller_loops = live.size();
  scope.delta.final_exps = 1;

  std::vector<std::shared_ptr<const pairing::PairingPrecomp>> pre(live.size());
  {
    std::lock_guard<std::mutex> lk(cache_->mu);
    for (size_t k = 0; k < live.size(); ++k) {
      const pairing::G1& a = terms[live[k]].a;
      LruCache::Node& node = cache_->touch(a.to_bytes());
      if (!node.pair && node.uses >= LruCache::kBuildThreshold) {
        node.pair = grp_->pair_precompute(a);
        ++scope.delta.precomp_builds;
      }
      if (node.pair) ++scope.delta.precomp_hits;
      pre[k] = node.pair;
    }
  }

  // Parallel Miller loops; the reduction below stays on the caller.
  std::vector<pairing::MillerVal> parts(live.size());
  run_items(live.size(), [&](size_t k) {
    const PairTerm& t = terms[live[k]];
    parts[k] = pre[k] ? grp_->miller_with(*pre[k], t.b) : grp_->miller(t.a, t.b);
  });

  // Fold unreduced values in submission order — exact arithmetic makes
  // this byte-identical to the serial pair-then-multiply loop at any
  // thread count. Runs of equal adjacent exponents fold first and are
  // raised once ((m1*m2)^e == m1^e * m2^e exactly), which halves the
  // exponentiations for the decrypt-denominator shape.
  pairing::MillerVal acc = grp_->miller_one();
  if (exps.empty()) {
    for (const pairing::MillerVal& p : parts) acc = acc.mul(p);
  } else {
    for (size_t k = 0; k < live.size();) {
      pairing::MillerVal run = parts[k];
      const Zr& e = exps[live[k]];
      size_t j = k + 1;
      for (; j < live.size() && exps[live[j]] == e; ++j) run = run.mul(parts[j]);
      ++scope.delta.gt_exps;
      acc = acc.mul(run.pow(e));
      k = j;
    }
  }
  // The single shared final exponentiation for the whole product.
  return grp_->miller_reduce(acc);
}

GT CryptoEngine::pair(const pairing::G1& a, const pairing::G1& b) {
  AdmissionTicket ticket(*this, 1);
  BatchScope scope(*this, EngineMetrics::get().pair_batch_ns, "engine.pair");
  scope.delta.pairings = 1;
  scope.set_items(1);
  if (a.is_identity() || b.is_identity()) return grp_->gt_one();
  scope.delta.miller_loops = 1;
  scope.delta.final_exps = 1;
  std::shared_ptr<const pairing::PairingPrecomp> pre;
  {
    std::lock_guard<std::mutex> lk(cache_->mu);
    LruCache::Node& node = cache_->touch(a.to_bytes());
    if (!node.pair && node.uses >= LruCache::kBuildThreshold) {
      node.pair = grp_->pair_precompute(a);
      ++scope.delta.precomp_builds;
    }
    if (node.pair) ++scope.delta.precomp_hits;
    pre = node.pair;
  }
  return pre ? grp_->miller_reduce(grp_->miller_with(*pre, b))
             : grp_->pair(a, b);
}

void CryptoEngine::warm_pair_precomp(const pairing::G1& base) {
  if (base.is_identity()) return;
  EngineStats d;
  {
    std::lock_guard<std::mutex> lk(cache_->mu);
    LruCache::Node& node = cache_->touch(base.to_bytes());
    // The caller announced a whole epoch of pairings against this base;
    // skip the break-even counting and build immediately.
    if (node.uses < LruCache::kBuildThreshold) node.uses = LruCache::kBuildThreshold;
    if (!node.pair) {
      node.pair = grp_->pair_precompute(base);
      d.precomp_builds = 1;
    }
  }
  if (d.precomp_builds != 0) commit_stats(d);
}

std::vector<G1> CryptoEngine::multi_exp_g1(const std::vector<G1Term>& terms,
                                           bool cache_bases) {
  AdmissionTicket ticket(*this, terms.size());
  BatchScope scope(*this, EngineMetrics::get().multi_exp_g1_ns,
                   "engine.multi_exp_g1");
  const size_t n = terms.size();
  scope.delta.g1_exps = n;
  scope.delta.tasks = n;
  scope.set_items(n);
  // Serial resolve phase: consult/update the LRU under one lock so the
  // parallel phase below touches only immutable tables.
  std::vector<std::shared_ptr<const pairing::G1FixedBase>> tables(n);
  if (cache_bases) {
    std::lock_guard<std::mutex> lk(cache_->mu);
    for (size_t i = 0; i < n; ++i) {
      if (terms[i].base.is_identity()) continue;
      LruCache::Node& node = cache_->touch(terms[i].base.to_bytes());
      if (!node.g1 && node.uses >= LruCache::kBuildThreshold) {
        node.g1 = grp_->g1_precompute(terms[i].base);
        ++scope.delta.table_builds;
      }
      if (node.g1) ++scope.delta.table_hits;
      tables[i] = node.g1;
    }
  }
  std::vector<G1> out(n);
  run_items(n, [&](size_t i) {
    out[i] = tables[i] ? grp_->g1_pow_with(*tables[i], terms[i].exp)
                       : terms[i].base.mul(terms[i].exp);
  });
  return out;
}

std::vector<GT> CryptoEngine::multi_exp_gt(const std::vector<GtTerm>& terms,
                                           bool cache_bases) {
  AdmissionTicket ticket(*this, terms.size());
  BatchScope scope(*this, EngineMetrics::get().multi_exp_gt_ns,
                   "engine.multi_exp_gt");
  const size_t n = terms.size();
  scope.delta.gt_exps = n;
  scope.delta.tasks = n;
  scope.set_items(n);
  std::vector<std::shared_ptr<const pairing::GtFixedBase>> tables(n);
  if (cache_bases) {
    std::lock_guard<std::mutex> lk(cache_->mu);
    for (size_t i = 0; i < n; ++i) {
      if (terms[i].base.is_one()) continue;
      LruCache::Node& node = cache_->touch(terms[i].base.to_bytes());
      if (!node.gt && node.uses >= LruCache::kBuildThreshold) {
        node.gt = grp_->gt_precompute(terms[i].base);
        ++scope.delta.table_builds;
      }
      if (node.gt) ++scope.delta.table_hits;
      tables[i] = node.gt;
    }
  }
  std::vector<GT> out(n);
  run_items(n, [&](size_t i) {
    out[i] = tables[i] ? grp_->gt_pow_with(*tables[i], terms[i].exp)
                       : terms[i].base.pow(terms[i].exp);
  });
  return out;
}

std::vector<G1> CryptoEngine::g_pow_batch(const std::vector<Zr>& exps) {
  AdmissionTicket ticket(*this, exps.size());
  BatchScope scope(*this, EngineMetrics::get().g_pow_batch_ns,
                   "engine.g_pow_batch");
  scope.delta.g1_exps = exps.size();
  scope.delta.tasks = exps.size();
  scope.set_items(exps.size());
  std::vector<G1> out(exps.size());
  run_items(exps.size(), [&](size_t i) { out[i] = grp_->g_pow(exps[i]); });
  return out;
}

std::vector<GT> CryptoEngine::egg_pow_batch(const std::vector<Zr>& exps) {
  AdmissionTicket ticket(*this, exps.size());
  BatchScope scope(*this, EngineMetrics::get().egg_pow_batch_ns,
                   "engine.egg_pow_batch");
  scope.delta.gt_exps = exps.size();
  scope.delta.tasks = exps.size();
  scope.set_items(exps.size());
  std::vector<GT> out(exps.size());
  run_items(exps.size(), [&](size_t i) { out[i] = grp_->egg_pow(exps[i]); });
  return out;
}

EngineStats CryptoEngine::stats() const {
  const StatCells& c = *stat_cells_;
  for (;;) {
    const uint64_t s1 = c.seq.load(std::memory_order_acquire);
    if ((s1 & 1) == 0) {
      EngineStats out;
      out.pairings = c.pairings.load(std::memory_order_relaxed);
      out.g1_exps = c.g1_exps.load(std::memory_order_relaxed);
      out.gt_exps = c.gt_exps.load(std::memory_order_relaxed);
      out.miller_loops = c.miller_loops.load(std::memory_order_relaxed);
      out.final_exps = c.final_exps.load(std::memory_order_relaxed);
      out.batches = c.batches.load(std::memory_order_relaxed);
      out.tasks = c.tasks.load(std::memory_order_relaxed);
      out.table_builds = c.table_builds.load(std::memory_order_relaxed);
      out.table_hits = c.table_hits.load(std::memory_order_relaxed);
      out.precomp_builds = c.precomp_builds.load(std::memory_order_relaxed);
      out.precomp_hits = c.precomp_hits.load(std::memory_order_relaxed);
      out.wall_ns = c.wall_ns.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (c.seq.load(std::memory_order_relaxed) == s1) return out;
    }
    std::this_thread::yield();
  }
}

void CryptoEngine::reset_stats() {
  StatCells& c = *stat_cells_;
  std::lock_guard<std::mutex> lk(c.write_mu);
  const uint64_t s = c.seq.load(std::memory_order_relaxed);
  c.seq.store(s + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (std::atomic<uint64_t>* f :
       {&c.pairings, &c.g1_exps, &c.gt_exps, &c.miller_loops, &c.final_exps,
        &c.batches, &c.tasks, &c.table_builds, &c.table_hits,
        &c.precomp_builds, &c.precomp_hits, &c.wall_ns}) {
    f->store(0, std::memory_order_relaxed);
  }
  c.seq.store(s + 2, std::memory_order_release);
}

}  // namespace maabe::engine
