// The honest-but-curious cloud server.
//
// Stores owners' protected files, serves them to consumers, and runs the
// ReEncrypt half of attribute revocation via proxy re-encryption — it
// never holds content keys and never decrypts anything (paper Section
// III-B trust model).
//
// Concurrency model (DESIGN.md §9): the store is split into N shards by
// hash of file_id, each guarded by its own std::shared_mutex. fetch()
// returns an immutable snapshot (shared_ptr<const StoredFile>) taken
// under the shard's read lock, so readers are never invalidated by a
// concurrent store() or reencrypt(). Writers lock only their shard, so
// re-encryption of one owner's files never blocks reads of unrelated
// shards.
//
// Revocation is a failure-atomic epoch: reencrypt() stages re-encrypted
// copies of every affected ciphertext off to the side (fanned out over
// CryptoEngine::parallel_for) and swaps them in under the shard write
// locks only after every slot has succeeded. If any slot throws, the
// staged copies are discarded and the stored bytes are exactly what they
// were before the call — the scheme's strict per-authority version
// checks (abe::reencrypt) can therefore never observe a half-updated
// store. A test-only fault hook lets tests prove this.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "abe/scheme.h"
#include "cloud/hybrid.h"

namespace maabe::cloud {

/// Per-shard monotonic counters, mirroring engine::EngineStats /
/// OpMeter: snapshot with CloudServer::stats(), report from benches.
struct ShardStats {
  uint64_t files = 0;             ///< live files in the shard
  uint64_t bytes = 0;             ///< serialized bytes at rest
  uint64_t stores = 0;            ///< store() calls (inserts + replacements)
  uint64_t fetches = 0;           ///< successful fetch() snapshots served
  uint64_t reencrypted_slots = 0; ///< ciphertext slots committed by epochs

  ShardStats& operator+=(const ShardStats& o);
};

/// Whole-store snapshot: per-shard counters plus the epoch ledger.
struct ServerStats {
  std::vector<ShardStats> shards;
  uint64_t epochs_committed = 0;       ///< reencrypt() epochs fully applied
  uint64_t epochs_aborted = 0;         ///< epochs staged, then discarded on failure
  uint64_t epochs_staged_open = 0;     ///< staged, neither committed nor aborted
  ShardStats totals() const;
};

class CloudServer {
 public:
  static constexpr size_t kDefaultShards = 16;

  explicit CloudServer(std::shared_ptr<const pairing::Group> grp,
                       size_t shard_count = kDefaultShards);

  CloudServer(const CloudServer&) = delete;
  CloudServer& operator=(const CloudServer&) = delete;

  /// Stores (or replaces) a file uploaded by an owner. Both file_id and
  /// owner_id must be non-empty — a file without an owner could never
  /// match any UpdateKey.owner_id and would silently escape revocation.
  void store(StoredFile file);

  bool has_file(const std::string& file_id) const;

  /// Immutable snapshot of the file at the time of the call. The
  /// snapshot stays valid (and unchanged) however many store() /
  /// reencrypt() calls race with the reader.
  std::shared_ptr<const StoredFile> fetch(const std::string& file_id) const;

  /// All file ids, sorted (stable across shard counts).
  std::vector<std::string> file_ids() const;

  /// ReEncrypt (paper Section V-C Phase 2): applies the update key and
  /// the per-ciphertext update information to every affected slot, as
  /// one all-or-nothing epoch. Throws SchemeError on duplicate or
  /// missing UpdateInfo; on any failure the store is unchanged.
  /// Returns the number of ciphertext slots re-encrypted and committed.
  size_t reencrypt(const abe::UpdateKey& uk, const std::vector<abe::UpdateInfo>& infos);

  // ---- Two-phase epoch hooks (cluster 2PC, DESIGN.md §13) -------------
  // stage_reencrypt runs the whole staging pass (select + deep-copy +
  // re-encrypt into private copies) but does NOT touch the store; the
  // staged epoch is held under an opaque token until the coordinator
  // decides its fate. commit_reencrypt swaps the staged copies in;
  // abort_reencrypt discards them, leaving the store byte-identical to
  // before the stage. reencrypt() above is stage+commit in one call.

  /// Stages an epoch. Returns a nonzero token, or 0 when no stored file
  /// is affected (nothing to commit or abort). Throws SchemeError on
  /// protocol violations and propagates re-encryption failures; either
  /// way nothing is retained and the store is unchanged.
  uint64_t stage_reencrypt(const abe::UpdateKey& uk,
                           const std::vector<abe::UpdateInfo>& infos);

  /// Commits a staged epoch; returns the slots committed and the ids of
  /// the files actually swapped (a file replaced by a concurrent
  /// store() since staging keeps the replacement and is not listed).
  /// Token 0 is a no-op. Throws SchemeError on an unknown token — a
  /// node that lost its staged state (restart) must surface that to the
  /// coordinator rather than silently ack an empty commit.
  size_t commit_reencrypt(uint64_t token,
                          std::vector<std::string>* committed_files = nullptr);

  /// Discards a staged epoch. Unknown (or 0) tokens are a no-op: aborts
  /// are broadcast best-effort and may race a restart.
  void abort_reencrypt(uint64_t token);

  /// Discards every staged epoch (process restart: staged state is
  /// memory-only and does not survive). Returns the number discarded.
  size_t abort_all_staged();

  /// Bytes at rest (Table III row "Server"): serialized stored files.
  size_t storage_bytes() const;

  /// Bytes of ABE group material at rest (the paper's |GT|+(l+1)|G|
  /// accounting, excluding the symmetric payloads).
  size_t ciphertext_group_material_bytes() const;

  size_t shard_count() const { return shards_.size(); }
  size_t shard_of(const std::string& file_id) const;
  ServerStats stats() const;

  /// Node identity stamped onto this store's spans (node_id attr). Set
  /// by the Cluster at construction; the default "server" matches the
  /// single-node CloudSystem. Not thread-safe against running epochs —
  /// install before use.
  void set_node_name(std::string name) { node_name_ = std::move(name); }
  const std::string& node_name() const { return node_name_; }

  /// Test-only: invoked (from pool workers) once per slot during the
  /// staging pass, before the slot is re-encrypted; throwing from the
  /// hook aborts the epoch. Not thread-safe against a running
  /// reencrypt() — install before use.
  void set_reencrypt_fault_hook(std::function<void(const std::string& ct_id)> hook) {
    fault_hook_ = std::move(hook);
  }

 private:
  struct Entry {
    std::shared_ptr<const StoredFile> file;
    size_t bytes = 0;  ///< serialized size, maintained on every swap
  };
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<std::string, Entry> files;     // guarded by mu
    uint64_t bytes = 0;                     // guarded by mu (exclusive)
    uint64_t stores = 0;                    // guarded by mu (exclusive)
    uint64_t reencrypted_slots = 0;         // guarded by mu (exclusive)
    mutable std::atomic<uint64_t> fetches{0};  // bumped under shared lock
  };
  struct StagedFile {
    size_t shard;
    std::shared_ptr<const StoredFile> original;  // for commit-time identity check
    std::shared_ptr<StoredFile> staged;
    std::vector<size_t> slot_indices;
  };
  struct StagedEpoch {
    std::vector<StagedFile> files;
    uint64_t start_ns = 0;  ///< steady-clock, for the epoch histogram
  };

  /// Staging pass shared by reencrypt() and stage_reencrypt(). Slot
  /// spans parent on the calling thread's current span.
  StagedEpoch stage_impl(const abe::UpdateKey& uk,
                         const std::vector<abe::UpdateInfo>& infos);
  /// Swap pass shared by reencrypt() and commit_reencrypt().
  size_t commit_impl(StagedEpoch& epoch, std::vector<std::string>* committed_files);

  std::shared_ptr<const pairing::Group> grp_;
  std::string node_name_ = "server";
  std::vector<Shard> shards_;
  std::atomic<uint64_t> epochs_committed_{0};
  std::atomic<uint64_t> epochs_aborted_{0};
  std::function<void(const std::string&)> fault_hook_;
  mutable std::mutex staged_mu_;
  uint64_t next_token_ = 0;                       // guarded by staged_mu_
  std::map<uint64_t, StagedEpoch> staged_epochs_;  // guarded by staged_mu_
};

}  // namespace maabe::cloud
