#include "cloud/server.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "abe/serial.h"
#include "common/errors.h"
#include "engine/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace maabe::cloud {

namespace {

/// Registry handles for the server's global counters. fetch() is the
/// shard-lookup hot path — a single sharded-atomic add, no extra locks.
struct ServerMetrics {
  telemetry::Counter& stores;
  telemetry::Counter& fetches;
  telemetry::Counter& reencrypted_slots;
  telemetry::Counter& epochs_committed;
  telemetry::Counter& epochs_aborted;
  telemetry::Histogram& epoch_ns;

  static ServerMetrics& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static ServerMetrics* m = new ServerMetrics{
        reg.counter("maabe_server_stores_total"),
        reg.counter("maabe_server_fetches_total"),
        reg.counter("maabe_server_reencrypted_slots_total"),
        reg.counter("maabe_server_epochs_committed_total"),
        reg.counter("maabe_server_epochs_aborted_total"),
        reg.histogram("maabe_server_epoch_ns"),
    };
    return *m;
  }
};

}  // namespace

ShardStats& ShardStats::operator+=(const ShardStats& o) {
  files += o.files;
  bytes += o.bytes;
  stores += o.stores;
  fetches += o.fetches;
  reencrypted_slots += o.reencrypted_slots;
  return *this;
}

ShardStats ServerStats::totals() const {
  ShardStats t;
  for (const ShardStats& s : shards) t += s;
  return t;
}

CloudServer::CloudServer(std::shared_ptr<const pairing::Group> grp, size_t shard_count)
    : grp_(std::move(grp)), shards_(shard_count == 0 ? 1 : shard_count) {}

size_t CloudServer::shard_of(const std::string& file_id) const {
  return std::hash<std::string>{}(file_id) % shards_.size();
}

void CloudServer::store(StoredFile file) {
  if (file.file_id.empty()) throw SchemeError("CloudServer: empty file id");
  if (file.owner_id.empty())
    throw SchemeError("CloudServer: file '" + file.file_id +
                      "' has empty owner id (would escape revocation)");
  const size_t bytes = serialize(*grp_, file).size();
  Shard& sh = shards_[shard_of(file.file_id)];
  auto snapshot = std::make_shared<const StoredFile>(std::move(file));
  std::unique_lock lk(sh.mu);
  Entry& entry = sh.files[snapshot->file_id];
  sh.bytes = sh.bytes - entry.bytes + bytes;
  entry = Entry{std::move(snapshot), bytes};
  ++sh.stores;
  ServerMetrics::get().stores.inc();
}

bool CloudServer::has_file(const std::string& file_id) const {
  const Shard& sh = shards_[shard_of(file_id)];
  std::shared_lock lk(sh.mu);
  return sh.files.contains(file_id);
}

std::shared_ptr<const StoredFile> CloudServer::fetch(const std::string& file_id) const {
  const Shard& sh = shards_[shard_of(file_id)];
  std::shared_lock lk(sh.mu);
  const auto it = sh.files.find(file_id);
  if (it == sh.files.end())
    throw SchemeError("CloudServer: no file '" + file_id + "'");
  sh.fetches.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::get().fetches.inc();
  return it->second.file;
}

std::vector<std::string> CloudServer::file_ids() const {
  std::vector<std::string> out;
  for (const Shard& sh : shards_) {
    std::shared_lock lk(sh.mu);
    for (const auto& [id, entry] : sh.files) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

CloudServer::StagedEpoch CloudServer::stage_impl(
    const abe::UpdateKey& uk, const std::vector<abe::UpdateInfo>& infos) {
  ServerMetrics& sm = ServerMetrics::get();
  // Index the update infos by ciphertext id. Two infos for the same
  // ciphertext are a protocol violation — applying an arbitrary one
  // would corrupt the slot, so fail loudly instead.
  std::map<std::string, const abe::UpdateInfo*> by_ct;
  for (const abe::UpdateInfo& ui : infos) {
    if (!by_ct.emplace(ui.ct_id, &ui).second)
      throw SchemeError("CloudServer: duplicate update info for ciphertext '" +
                        ui.ct_id + "'");
  }

  // ---- Stage: select affected files under shard read locks and deep-
  // copy them. All re-encryption below mutates only these private
  // copies, so any failure leaves the store byte-identical.
  StagedEpoch epoch;
  epoch.start_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  std::vector<StagedFile>& staged = epoch.files;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock lk(shards_[s].mu);
    for (const auto& [file_id, entry] : shards_[s].files) {
      const StoredFile& file = *entry.file;
      if (file.owner_id != uk.owner_id) continue;
      std::vector<size_t> slots;
      for (size_t i = 0; i < file.slots.size(); ++i) {
        const abe::Ciphertext& ct = file.slots[i].key_ct;
        const auto ver = ct.versions.find(uk.aid);
        if (ver == ct.versions.end() || ver->second != uk.from_version) continue;
        if (!by_ct.contains(ct.id))
          throw SchemeError("CloudServer: missing update info for ciphertext '" +
                            ct.id + "'");
        slots.push_back(i);
      }
      if (slots.empty()) continue;
      staged.push_back({s, entry.file, std::make_shared<StoredFile>(file),
                        std::move(slots)});
    }
  }
  if (staged.empty()) return epoch;

  // Flatten to per-slot work items and fan the proxy re-encryption (one
  // pairing + per-row point additions each) across the engine's pool.
  // Slots are independent; results don't depend on order.
  struct SlotRef {
    size_t file, slot;
  };
  std::vector<SlotRef> work;
  for (size_t f = 0; f < staged.size(); ++f) {
    for (size_t i : staged[f].slot_indices) work.push_back({f, i});
  }
  // Every slot pairs against the same UK1; build its pairing line table
  // once before fanning out so all slots take the precomputed path.
  engine::CryptoEngine::for_group(*grp_).warm_pair_precomp(uk.uk1);
  try {
    // parallel_for runs every slot under this thread's current span (the
    // caller's epoch/stage span), on whichever worker picks it up.
    engine::CryptoEngine::for_group(*grp_).parallel_for(
        work.size(), [&](size_t w) {
          abe::Ciphertext& ct =
              staged[work[w].file].staged->slots[work[w].slot].key_ct;
          telemetry::Span slot_span =
              telemetry::Tracer::global().start_span("server.reencrypt_slot");
          if (slot_span.active()) {
            slot_span.attr("ct_id", ct.id);
            slot_span.attr("node_id", node_name_);
          }
          if (fault_hook_) fault_hook_(ct.id);
          abe::reencrypt(*grp_, &ct, uk, *by_ct.at(ct.id));
        });
  } catch (...) {
    // parallel_for rethrows the first failure and may abandon remaining
    // slots — both fine here: the staged copies are simply dropped.
    epochs_aborted_.fetch_add(1, std::memory_order_relaxed);
    sm.epochs_aborted.inc();
    throw;
  }
  return epoch;
}

size_t CloudServer::commit_impl(StagedEpoch& epoch,
                                std::vector<std::string>* committed_files) {
  ServerMetrics& sm = ServerMetrics::get();
  // Every slot succeeded; swap the snapshots in under the shard write
  // locks. A file replaced by a concurrent store() since staging keeps
  // the replacement (the epoch covered the files present at stage time).
  size_t committed = 0;
  for (StagedFile& sf : epoch.files) {
    Shard& sh = shards_[sf.shard];
    std::unique_lock lk(sh.mu);
    const auto it = sh.files.find(sf.staged->file_id);
    if (it == sh.files.end() || it->second.file != sf.original) continue;
    const size_t bytes = serialize(*grp_, *sf.staged).size();
    sh.bytes = sh.bytes - it->second.bytes + bytes;
    if (committed_files != nullptr) committed_files->push_back(sf.staged->file_id);
    it->second = Entry{std::move(sf.staged), bytes};
    sh.reencrypted_slots += sf.slot_indices.size();
    committed += sf.slot_indices.size();
  }
  epochs_committed_.fetch_add(1, std::memory_order_relaxed);
  sm.epochs_committed.inc();
  sm.reencrypted_slots.add(committed);
  sm.epoch_ns.observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count()) - epoch.start_ns);
  return committed;
}

size_t CloudServer::reencrypt(const abe::UpdateKey& uk,
                              const std::vector<abe::UpdateInfo>& infos) {
  telemetry::Span epoch_span =
      telemetry::Tracer::global().start_span("server.reencrypt_epoch");
  if (epoch_span.active()) {
    epoch_span.attr("aid", uk.aid);
    epoch_span.attr("owner", uk.owner_id);
    epoch_span.attr("from_version", static_cast<uint64_t>(uk.from_version));
    epoch_span.attr("node_id", node_name_);
  }
  StagedEpoch epoch;
  try {
    epoch = stage_impl(uk, infos);
  } catch (...) {
    if (epoch_span.active()) epoch_span.attr("outcome", "aborted");
    throw;
  }
  if (epoch.files.empty()) return 0;
  const size_t committed = commit_impl(epoch, nullptr);
  if (epoch_span.active()) {
    epoch_span.attr("slots", static_cast<uint64_t>(committed));
    epoch_span.attr("outcome", "committed");
  }
  return committed;
}

uint64_t CloudServer::stage_reencrypt(const abe::UpdateKey& uk,
                                      const std::vector<abe::UpdateInfo>& infos) {
  telemetry::Span stage_span =
      telemetry::Tracer::global().start_span("server.reencrypt_stage");
  if (stage_span.active()) {
    stage_span.attr("aid", uk.aid);
    stage_span.attr("owner", uk.owner_id);
    stage_span.attr("from_version", static_cast<uint64_t>(uk.from_version));
    stage_span.attr("node_id", node_name_);
  }
  StagedEpoch epoch = stage_impl(uk, infos);
  if (epoch.files.empty()) {
    if (stage_span.active()) stage_span.attr("outcome", "empty");
    return 0;
  }
  if (stage_span.active()) {
    stage_span.attr("files", static_cast<uint64_t>(epoch.files.size()));
    stage_span.attr("outcome", "staged");
  }
  std::lock_guard<std::mutex> lock(staged_mu_);
  const uint64_t token = ++next_token_;
  staged_epochs_.emplace(token, std::move(epoch));
  return token;
}

size_t CloudServer::commit_reencrypt(uint64_t token,
                                     std::vector<std::string>* committed_files) {
  if (token == 0) return 0;
  StagedEpoch epoch;
  {
    std::lock_guard<std::mutex> lock(staged_mu_);
    const auto it = staged_epochs_.find(token);
    if (it == staged_epochs_.end())
      throw SchemeError("CloudServer: unknown staged epoch token " +
                        std::to_string(token));
    epoch = std::move(it->second);
    staged_epochs_.erase(it);
  }
  return commit_impl(epoch, committed_files);
}

void CloudServer::abort_reencrypt(uint64_t token) {
  if (token == 0) return;
  std::lock_guard<std::mutex> lock(staged_mu_);
  const auto it = staged_epochs_.find(token);
  if (it == staged_epochs_.end()) return;
  staged_epochs_.erase(it);
  epochs_aborted_.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::get().epochs_aborted.inc();
}

size_t CloudServer::abort_all_staged() {
  std::lock_guard<std::mutex> lock(staged_mu_);
  const size_t n = staged_epochs_.size();
  staged_epochs_.clear();
  epochs_aborted_.fetch_add(n, std::memory_order_relaxed);
  ServerMetrics::get().epochs_aborted.add(n);
  return n;
}

size_t CloudServer::storage_bytes() const {
  size_t total = 0;
  for (const Shard& sh : shards_) {
    std::shared_lock lk(sh.mu);
    total += sh.bytes;
  }
  return total;
}

size_t CloudServer::ciphertext_group_material_bytes() const {
  size_t total = 0;
  for (const Shard& sh : shards_) {
    std::shared_lock lk(sh.mu);
    for (const auto& [id, entry] : sh.files) {
      for (const SealedSlot& slot : entry.file->slots)
        total += abe::ciphertext_group_material_bytes(*grp_, slot.key_ct);
    }
  }
  return total;
}

ServerStats CloudServer::stats() const {
  ServerStats out;
  out.shards.reserve(shards_.size());
  for (const Shard& sh : shards_) {
    std::shared_lock lk(sh.mu);
    ShardStats s;
    s.files = sh.files.size();
    s.bytes = sh.bytes;
    s.stores = sh.stores;
    s.fetches = sh.fetches.load(std::memory_order_relaxed);
    s.reencrypted_slots = sh.reencrypted_slots;
    out.shards.push_back(s);
  }
  out.epochs_committed = epochs_committed_.load(std::memory_order_relaxed);
  out.epochs_aborted = epochs_aborted_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(staged_mu_);
    out.epochs_staged_open = staged_epochs_.size();
  }
  return out;
}

}  // namespace maabe::cloud
