#include "driver.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <sstream>

#include "common/errors.h"
#include "telemetry/trace.h"

namespace maabe::perfbench {

using cloud::CloudSystem;
using Clock = std::chrono::steady_clock;

/// Parked deliveries are replayed every this many ops, as loadgen's
/// background flush does.
constexpr size_t kFlushEvery = 16;

namespace {

// Why each workload exists is in BENCHMARK.json and perfbench/README.md.
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec hot;
    hot.name = "hot_read";
    hot.authorities = 2;
    hot.attributes = 2;
    hot.users = 4;
    hot.files = 16;
    hot.payload_bytes = 256;
    hot.zipf_s = 1.1;
    hot.n_download = 18;
    hot.n_store = 2;
    hot.determinism_ops = 64;
    v.push_back(hot);

    WorkloadSpec churn;
    churn.name = "revocation_churn";
    churn.authorities = 3;
    churn.attributes = 4;
    churn.policy_width = 2;
    churn.users = 80;
    churn.files = 128;
    churn.payload_bytes = 256;
    churn.zipf_s = 1.1;
    churn.n_download = 8;
    churn.n_store = 6;
    churn.n_revoke = 3;
    churn.n_enroll = 3;
    churn.determinism_ops = 16;
    v.push_back(churn);

    WorkloadSpec bulk;
    bulk.name = "bulk_objects";
    bulk.authorities = 2;
    bulk.attributes = 2;
    bulk.attrs_per_user = 2;
    bulk.users = 4;
    bulk.files = 32;
    bulk.components = 4;
    bulk.payload_bytes = 256 * 1024;
    bulk.zipf_s = 0;
    bulk.n_download = 12;
    bulk.n_store = 8;
    bulk.determinism_ops = 16;
    v.push_back(bulk);

    WorkloadSpec outage;
    outage.name = "node_outage";
    outage.authorities = 2;
    outage.attributes = 2;
    outage.users = 16;
    outage.files = 32;
    outage.payload_bytes = 1024;
    outage.zipf_s = 1.1;
    outage.n_download = 12;
    outage.n_store = 4;
    outage.n_revoke = 2;
    outage.n_enroll = 2;
    outage.outage = true;
    outage.determinism_ops = 16;
    v.push_back(outage);
    return v;
  }();
  return all;
}

const char* const kRegNames[kRegCounters] = {
    "maabe_transport_frame_bytes_total",    "maabe_transport_frames_total",
    "maabe_transport_retries_total",        "maabe_cluster_quorum_reads_total",
    "maabe_cluster_read_repairs_total",     "maabe_cluster_replication_ops_total",
    "maabe_cluster_replication_shed_total", "maabe_cluster_epochs_2pc_total",
    "maabe_cluster_epoch_commits_total",    "maabe_cluster_epoch_aborts_total",
    "maabe_server_reencrypted_slots_total", "maabe_decrypt_cache_hits_total",
    "maabe_decrypt_cache_misses_total",     "maabe_recovery_hints_replayed_total",
    "maabe_recovery_bytes_transferred_total",
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string aid(size_t i) { return "A" + std::to_string(i); }
std::string attr(size_t j) { return "a" + std::to_string(j); }
std::string file_id(size_t f) { return "f" + std::to_string(f); }
std::string component(size_t c, uint64_t rev) {
  return "c" + std::to_string(c) + ".r" + std::to_string(rev);
}
/// Inverse of component(); false on a name this benchmark never wrote.
bool parse_component(const std::string& name, size_t* c, uint64_t* rev) {
  return std::sscanf(name.c_str(), "c%zu.r%lu", c, rev) == 2;
}

/// Runs `fn` under the latency clock; true when it returned normally.
/// Overload rejections, degraded (fail-closed) reads and every typed
/// error are failures, with their message in *err.
bool timed_call(const std::function<void()>& fn, double* ms, std::string* err) {
  const auto t0 = Clock::now();
  bool ok = true;
  try {
    fn();
  } catch (const TransportError& e) {
    ok = false;
    *err = std::string("transport: ") + e.what();
  } catch (const OverloadError& e) {
    ok = false;
    *err = std::string("overload: ") + e.what();
  } catch (const Error& e) {
    ok = false;
    *err = e.what();
  }
  *ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return ok;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& s : specs()) out.push_back(s.name);
  return out;
}

const char* op_class_name(size_t cls) {
  static const char* const names[kOpClasses] = {"download", "store", "revoke", "enroll"};
  return names[cls];
}

// ------------------------------------------------------------ Counters --

Counters Counters::operator-(const Counters& e) const {
  Counters d;
  d.engine = engine - e.engine;
  d.meter_frame_bytes = meter_frame_bytes - e.meter_frame_bytes;
  for (size_t i = 0; i < reg.size(); ++i) d.reg[i] = reg[i] - e.reg[i];
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  engine += o.engine;
  meter_frame_bytes += o.meter_frame_bytes;
  for (size_t i = 0; i < reg.size(); ++i) reg[i] += o.reg[i];
  return *this;
}

uint64_t PhaseResult::attempted() const {
  uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.attempted;
  return n;
}

uint64_t PhaseResult::failed() const {
  uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.failed;
  return n;
}

Counters PhaseResult::op_counters() const {
  Counters sum;
  for (const ClassStats& c : cls) sum += c.counters;
  return sum;
}

// --------------------------------------------------------------- World --

World::World(std::shared_ptr<const pairing::Group> grp, const WorkloadSpec& spec,
             uint64_t seed, int rep, SpeedProbe& probe)
    : grp_(std::move(grp)), spec_(spec), seed_(seed),
      rng_("perfbench/" + spec.name + "/" + std::to_string(seed)),
      zipf_(spec.files, spec.zipf_s),
      engine_(engine::CryptoEngine::for_group(*grp_)), probe_(probe) {
  cloud::ClusterConfig cluster;
  cluster.nodes = 3;
  cluster.replication = 2;
  sys_ = std::make_unique<CloudSystem>(
      grp_,
      "perfbench/" + spec.name + "/" + std::to_string(seed) + "/" + std::to_string(rep),
      std::make_unique<cloud::LoopbackTransport>(), cloud::RetryPolicy(), cluster);
  auto& reg = telemetry::MetricsRegistry::global();
  for (size_t i = 0; i < kRegCounters; ++i) reg_[i] = &reg.counter(kRegNames[i]);
  rev_.assign(spec_.files, 0);
  acceptable_.assign(spec_.files, {});
}

World::~World() = default;

std::vector<World::Slot> World::slot_policy(size_t file, size_t component) const {
  const size_t k = (file + component) % (spec_.authorities * spec_.attributes);
  const size_t j = k % spec_.attributes;
  const size_t i = k / spec_.attributes;
  std::vector<Slot> out;
  for (size_t w = 0; w < spec_.policy_width; ++w)
    out.push_back({(i + w) % spec_.authorities, j});
  return out;
}

std::string World::policy_string(size_t file, size_t component) const {
  std::string s;
  for (const Slot& sl : slot_policy(file, component)) {
    if (!s.empty()) s += " AND ";
    s += attr(sl.attribute) + "@" + aid(sl.authority);
  }
  return s;
}

bool World::eligible(const User& u, size_t file, size_t component) const {
  for (const Slot& sl : slot_policy(file, component)) {
    if (!u.attrs.contains(sl.attribute)) return false;
    if (u.revoked.contains({sl.authority, sl.attribute})) return false;
  }
  return true;
}

Bytes World::payload(size_t file, uint64_t rev, size_t component) const {
  uint64_t state = seed_ * 0x100000001b3ULL ^ (file << 40) ^ (rev << 8) ^ component;
  Bytes out(spec_.payload_bytes);
  for (size_t i = 0; i < out.size(); i += 8) {
    const uint64_t r = splitmix64(state);
    for (size_t b = 0; b < 8 && i + b < out.size(); ++b)
      out[i + b] = static_cast<uint8_t>(r >> (8 * b));
  }
  return out;
}

double World::uniform() {
  const Bytes raw = rng_.bytes(8);
  uint64_t u = 0;
  for (uint8_t b : raw) u = (u << 8) | b;
  return static_cast<double>(u >> 11) / 9007199254740992.0;
}

size_t World::next_class() {
  if (deck_.empty()) {
    deck_.insert(deck_.end(), spec_.n_download, kDownload);
    deck_.insert(deck_.end(), spec_.n_store, kStore);
    deck_.insert(deck_.end(), spec_.n_revoke, kRevoke);
    deck_.insert(deck_.end(), spec_.n_enroll, kEnroll);
    for (size_t i = deck_.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(uniform() * static_cast<double>(i)) % i;
      std::swap(deck_[i - 1], deck_[j]);
    }
  }
  const size_t cls = deck_.back();
  deck_.pop_back();
  return cls;
}

void World::enroll() {
  User u;
  const size_t n = users_.size();
  u.uid = "u" + std::to_string(n);
  for (size_t k = 0; k < std::min(spec_.attrs_per_user, spec_.attributes); ++k)
    u.attrs.insert((n + k) % spec_.attributes);
  std::set<std::string> names;
  for (size_t j : u.attrs) names.insert(attr(j));
  // The model records the user first: if an authority fails half-way,
  // downloads still treat the user by what it was granted.
  users_.push_back(u);
  sys_->add_user(u.uid);
  for (size_t i = 0; i < spec_.authorities; ++i) {
    sys_->assign_attributes(aid(i), u.uid, names);
    sys_->issue_user_key(aid(i), u.uid, "org");
  }
}

std::vector<cloud::DataComponent> World::next_revision(size_t f) {
  const uint64_t rev = ++rev_[f];
  std::vector<cloud::DataComponent> comps;
  for (size_t c = 0; c < spec_.components; ++c)
    comps.push_back({component(c, rev), payload(f, rev, c), policy_string(f, c)});
  return comps;
}

void World::upload(size_t f, const std::vector<cloud::DataComponent>& comps) {
  acceptable_[f].push_back(rev_[f]);
  sys_->upload("org", file_id(f), comps);
  acceptable_[f] = {rev_[f]};
}

void World::setup() {
  for (size_t i = 0; i < spec_.authorities; ++i) {
    std::set<std::string> attrs;
    for (size_t j = 0; j < spec_.attributes; ++j) attrs.insert(attr(j));
    sys_->add_authority(aid(i), attrs);
  }
  sys_->add_owner("org");
  for (size_t i = 0; i < spec_.authorities; ++i) sys_->publish_authority_keys(aid(i), "org");
  for (size_t u = 0; u < spec_.users; ++u) {
    probe_.maybe_sample();
    enroll();
  }
  for (size_t f = 0; f < spec_.files; ++f) {
    probe_.maybe_sample();
    upload(f, next_revision(f));
  }
  sys_->flush_pending();
}

void World::fail(const std::string& what, bool wrong_output) {
  // Every wrong output is printed (up to a cap); typed failures only
  // until the pattern is clear.
  uint64_t& n = wrong_output ? wrong_outputs_ : failures_;
  if (n++ < (wrong_output ? 100u : 20u))
    std::fprintf(stderr, "perfbench: %s %s\n", wrong_output ? "WRONG" : "FAILED", what.c_str());
}

Counters World::snapshot() {
  Counters c;
  c.engine = engine_.stats();
  c.meter_frame_bytes = sys_->meter().totals().frame_bytes;
  for (size_t i = 0; i < kRegCounters; ++i) c.reg[i] = reg_[i]->value();
  return c;
}

std::pair<bool, bool> World::do_download(size_t f) {
  std::vector<size_t> ok;
  for (size_t i = 0; i < users_.size(); ++i) {
    bool all = true;
    for (size_t c = 0; c < spec_.components && all; ++c) all = eligible(users_[i], f, c);
    if (all) ok.push_back(i);
  }
  const size_t pick = static_cast<size_t>(uniform() * static_cast<double>(
                                              ok.empty() ? users_.size() : ok.size()));
  const User& u = users_[ok.empty() ? pick % users_.size() : ok[pick % ok.size()]];

  CloudSystem::DownloadReport rep;
  double ms = 0;
  std::string err;
  const bool called =
      timed_call([&] { rep = sys_->download_report(u.uid, file_id(f)); }, &ms, &err);
  last_ms_ = ms;
  const std::string where = "download " + file_id(f) + " by " + u.uid + ": ";
  if (!called) {
    fail(where + err);
    return {true, false};
  }
  if (rep.slots.size() != spec_.components) {
    fail(where + std::to_string(rep.slots.size()) + " slots");
    return {true, false};
  }
  bool denied = true;
  for (const CloudSystem::SlotReport& sr : rep.slots) {
    size_t c = 0;
    uint64_t rev = 0;
    if (!parse_component(sr.component, &c, &rev) || c >= spec_.components ||
        std::find(acceptable_[f].begin(), acceptable_[f].end(), rev) ==
            acceptable_[f].end()) {
      fail(where + "slot '" + sr.component + "' is not the content last stored", true);
      return {true, false};
    }
    if (!eligible(u, f, c)) {
      if (sr.state != CloudSystem::SlotState::kNoKey) {
        fail(where + "slot '" + sr.component + "' opened although the policy denies it", true);
        return {true, false};
      }
      continue;
    }
    denied = false;
    if (sr.state != CloudSystem::SlotState::kOk) {
      fail(where + "slot '" + sr.component + "' not opened: " + sr.detail);
      return {true, false};
    }
    if (sr.plaintext != payload(f, rev, c)) {
      fail(where + "slot '" + sr.component + "' bytes differ from the bytes stored", true);
      return {true, false};
    }
  }
  return {false, denied};
}

std::pair<bool, bool> World::do_store(size_t f) {
  double ms = 0;
  std::string err;
  const std::vector<cloud::DataComponent> comps = next_revision(f);
  const bool called = timed_call([&] { upload(f, comps); }, &ms, &err);
  last_ms_ = ms;
  if (!called) fail("store " + file_id(f) + ": " + err);
  return {!called, false};
}

std::pair<bool, bool> World::do_revoke(size_t* cls) {
  // Revoke an attribute whose (authority, attribute) class keeps at
  // least one other live holder, newest user first, so no file loses
  // its last reader. Authorities take turns, so every seed spreads its
  // revocations over them alike.
  const size_t i0 = revocations_.size() % spec_.authorities;
  for (size_t t = 0; t < spec_.authorities; ++t) {
    const size_t i = (i0 + t) % spec_.authorities;
    for (size_t v = users_.size(); v-- > 0;) {
      for (size_t j : users_[v].attrs) {
        if (users_[v].revoked.contains({i, j})) continue;
        size_t holders = 0;
        for (const User& u : users_) {
          if (u.attrs.contains(j) && !u.revoked.contains({i, j})) ++holders;
        }
        if (holders < 2) continue;
        User& victim = users_[v];
        Revocation r{victim.uid, i, j, sys_->authority(aid(i)).version()};
        victim.revoked.insert({i, j});
        revocations_.push_back(r);
        double ms = 0;
        std::string err;
        const bool called = timed_call(
            [&] { sys_->revoke_attribute(aid(i), victim.uid, attr(j)); }, &ms, &err);
        last_ms_ = ms;
        revocations_.back().op_failed = !called;
        if (!called) fail("revoke " + attr(j) + "@" + aid(i) + " from " + victim.uid + ": " + err);
        return {!called, false};
      }
    }
  }
  // Nothing is safely revocable: keep the op budget with a download.
  *cls = kDownload;
  return do_download(zipf_.sample(rng_));
}

std::pair<bool, bool> World::do_enroll() {
  double ms = 0;
  std::string err;
  const bool called = timed_call([&] { enroll(); }, &ms, &err);
  last_ms_ = ms;
  if (!called) fail("enroll u" + std::to_string(users_.size() - 1) + ": " + err);
  return {!called, false};
}

PhaseResult World::run_phase(double seconds, bool traced) {
  PhaseResult res;
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const std::string victim_node = "node:1";
  bool killed = false, rejoined = false;
  size_t ops = 0;

  // A maintenance window (flush or outage event): counted against the
  // reconciliation, never against an op class.
  const auto maintenance = [&](const char* span, const std::function<void()>& fn) {
    const Counters c0 = snapshot();
    {
      telemetry::Span root;
      if (traced) root = tracer.start_span(span);
      fn();
    }
    res.maintenance += snapshot() - c0;
  };

  // Op intervals on the probe's clock, per class, for scaling.
  std::array<std::vector<std::pair<double, double>>, kOpClasses> spans_s;

  res.before = sys_->telemetry_snapshot();
  const Counters phase0 = snapshot();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const double p0 = probe_.now();
  probe_.sample();
  const auto elapsed = [&] { return std::chrono::duration<double>(Clock::now() - t0).count(); };

  // Whole decks only: the phase ends at the first deck boundary after
  // `seconds`, so every run holds the op mix exactly, and not before
  // every class of the mix has enough samples for a tail (on a slow
  // host that takes longer than `seconds`).
  const auto short_of_tail = [&] {
    const size_t per_deck[kOpClasses] = {spec_.n_download, spec_.n_store, spec_.n_revoke,
                                         spec_.n_enroll};
    for (size_t c = 0; c < kOpClasses; ++c) {
      if (per_deck[c] > 0 && res.cls[c].attempted < kTailMinSamples) return true;
    }
    return false;
  };
  while (elapsed() < seconds || !deck_.empty() || short_of_tail()) {
    if (spec_.outage && !killed && elapsed() >= seconds / 3) {
      maintenance("bench.kill", [&] { sys_->cluster().kill_node(victim_node); });
      killed = true;
    }
    if (spec_.outage && killed && !rejoined && elapsed() >= 2 * seconds / 3) {
      maintenance("bench.rejoin", [&] {
        const auto r0 = Clock::now();
        sys_->cluster().restart_node(victim_node);
        sys_->flush_pending();
        res.convergence_ms +=
            std::chrono::duration<double, std::milli>(Clock::now() - r0).count();
      });
      res.rejoined_node_bytes = sys_->cluster().node_store(victim_node).storage_bytes();
      rejoined = true;
    }

    size_t cls = next_class();
    const size_t f = zipf_.sample(rng_);
    probe_.maybe_sample();
    const double op_t0 = probe_.now();
    const Counters c0 = snapshot();
    std::pair<bool, bool> outcome;
    {
      telemetry::Span root;
      // The class is known up front except for a revoke that falls back
      // to a download; that rare op keeps its "bench.revoke" root.
      if (traced) root = tracer.start_span(std::string("bench.") + op_class_name(cls));
      switch (cls) {
        case kDownload: outcome = do_download(f); break;
        case kStore: outcome = do_store(f); break;
        case kRevoke: outcome = do_revoke(&cls); break;
        default: outcome = do_enroll(); break;
      }
    }
    ClassStats& cs = res.cls[cls];
    cs.counters += snapshot() - c0;
    cs.raw_latencies_ms.push_back(last_ms_);
    spans_s[cls].emplace_back(op_t0, probe_.now());
    ++cs.attempted;
    if (outcome.first) ++cs.failed;
    if (outcome.second) ++cs.denied;
    ++ops;

    if (ops % kFlushEvery == 0)
      maintenance("bench.flush", [&] { sys_->flush_pending(); });
    if (traced) res.lag_max = std::max<uint64_t>(res.lag_max, sys_->replication_lag());

    if (ops == spec_.determinism_ops && res.fingerprint.empty()) {
      const Counters d = snapshot() - phase0;
      std::ostringstream fp;
      for (size_t k = 0; k < kOpClasses; ++k) {
        fp << op_class_name(k) << "=" << res.cls[k].attempted << "/" << res.cls[k].failed
           << "/" << res.cls[k].denied << " ";
      }
      fp << "wire_bytes=" << d.reg[kFrameBytes] << " pairings=" << d.engine.pairings
         << " final_exps=" << d.engine.final_exps << " g1_exps=" << d.engine.g1_exps
         << " gt_exps=" << d.engine.gt_exps << " table_builds=" << d.engine.table_builds
         << " stored_bytes=" << sys_->cluster().stats().store_totals.bytes;
      res.fingerprint = fp.str();
    }
  }
  const double p1 = probe_.now();
  probe_.sample();
  const double probe_s = probe_.cost(p0, p1);
  res.wall_s = elapsed() - probe_.cost(p0, probe_.now());
  res.cpu_s = cpu_seconds() - cpu0 - probe_.cost(p0, probe_.now());
  res.after = sys_->telemetry_snapshot();

  // Scale each op by the probe samples around it; time between ops by
  // the phase's median probe.
  double op_raw_s = 0, op_scaled_s = 0;
  for (size_t c = 0; c < kOpClasses; ++c) {
    ClassStats& cs = res.cls[c];
    for (size_t k = 0; k < cs.raw_latencies_ms.size(); ++k) {
      const double f = probe_.factor(spans_s[c][k].first, spans_s[c][k].second);
      cs.latencies_ms.push_back(cs.raw_latencies_ms[k] * f);
      op_raw_s += cs.raw_latencies_ms[k] / 1e3;
      op_scaled_s += cs.raw_latencies_ms[k] * f / 1e3;
    }
  }
  const double rest_s = std::max(0.0, p1 - p0 - probe_s - op_raw_s);
  res.scale = (op_scaled_s + rest_s * probe_.factor(p0, p1)) / (op_raw_s + rest_s);
  return res;
}

uint64_t World::check_revocations() {
  std::set<size_t> violated;
  cloud::Cluster& cluster = sys_->cluster();
  for (const std::string& node : cluster.node_names()) {
    if (!cluster.alive(node)) continue;
    const cloud::CloudServer& store = cluster.node_store(node);
    for (const std::string& id : store.file_ids()) {
      const std::shared_ptr<const cloud::StoredFile> file = store.fetch(id);
      size_t f = 0;
      if (!file || std::sscanf(id.c_str(), "f%zu", &f) != 1) continue;
      for (const cloud::SealedSlot& slot : file->slots) {
        size_t c = 0;
        uint64_t rev = 0;
        if (!parse_component(slot.component_name, &c, &rev)) continue;
        const std::vector<Slot> policy = slot_policy(f, c);
        for (size_t k = 0; k < revocations_.size(); ++k) {
          const Revocation& r = revocations_[k];
          const bool affected = std::any_of(policy.begin(), policy.end(), [&](const Slot& s) {
            return s.authority == r.authority && s.attribute == r.attribute;
          });
          if (!affected) continue;
          const auto ver = slot.key_ct.versions.find(aid(r.authority));
          const bool stale = ver == slot.key_ct.versions.end() || ver->second <= r.from_version;
          if (!stale && !sys_->user(r.uid).can_open(slot)) continue;
          if (!r.op_failed) violated.insert(k);
          fail("revocation " + attr(r.attribute) + "@" + aid(r.authority) + " of " + r.uid +
               " (from version " + std::to_string(r.from_version) + ") not in effect on " +
               node + " for " + id + "/" + slot.component_name +
               (stale ? " (slot still at the revoked version)" : " (user can still open it)"),
               true);
        }
      }
    }
  }
  return violated.size();
}

double World::stored_bytes_per_user_byte() {
  uint64_t stored = 0;
  for (const std::string& node : sys_->cluster().node_names())
    stored += sys_->cluster().node_store(node).storage_bytes();
  const double live = static_cast<double>(spec_.files * spec_.components * spec_.payload_bytes);
  return static_cast<double>(stored) / live;
}

}  // namespace maabe::perfbench
