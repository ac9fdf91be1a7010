// The benchmark's workload driver: one closed-loop client thread on a
// 3-node, R=2 CloudSystem. It builds the world from the seed, runs a
// timed phase of Zipf-chosen ops, checks every result against its own
// model of what the program must return, and snapshots the counters
// the program exports around every op, so counts land on op classes.
#pragma once

#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/system.h"
#include "crypto/drbg.h"
#include "engine/engine.h"
#include "fold.h"
#include "loadgen/loadgen.h"
#include "probe.h"

namespace maabe::perfbench {

struct WorkloadSpec {
  std::string name;
  size_t authorities = 2;
  size_t attributes = 2;      ///< per authority
  size_t policy_width = 1;    ///< authorities ANDed per slot policy
  size_t attrs_per_user = 1;  ///< attribute indices each user holds at every authority
  size_t users = 4;           ///< pool enrolled in set-up
  size_t files = 16;
  size_t components = 1;      ///< slots per file (Fig. 2 hybrid format)
  size_t payload_bytes = 256; ///< per component
  double zipf_s = 1.1;
  /// Op mix, in ops of each class per deck of 20. The timed phase deals
  /// seed-shuffled decks, so every 20 ops hold the mix exactly and
  /// seeds change the order and the files, not the proportions.
  size_t n_download = 18, n_store = 2, n_revoke = 0, n_enroll = 0;
  bool outage = false;        ///< kill node:1 at 1/3 of the phase, rejoin at 2/3
  size_t determinism_ops = 16;  ///< ops covered by the determinism fingerprint
};

const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

enum OpClass { kDownload, kStore, kRevoke, kEnroll, kOpClasses };
const char* op_class_name(size_t cls);

/// Registry counters read around every op (interned by name, so these
/// are the program's own cells).
enum RegCounter {
  kFrameBytes, kFrames, kRetries, kQuorumReads, kReadRepairs, kReplicationOps,
  kReplicationSheds, kEpochs2pc, kEpochCommits, kEpochAborts, kReencryptedSlots,
  kCacheHits, kCacheMisses, kHintsReplayed, kRecoveryBytes, kRegCounters
};

/// One snapshot of the per-window counters.
struct Counters {
  engine::EngineStats engine;
  uint64_t meter_frame_bytes = 0;  ///< ChannelMeter totals (a second store)
  std::array<uint64_t, kRegCounters> reg{};

  Counters operator-(const Counters& earlier) const;
  Counters& operator+=(const Counters& o);
};

struct ClassStats {
  std::vector<double> latencies_ms;      ///< scaled to the probe's reference speed
  std::vector<double> raw_latencies_ms;  ///< as measured
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t denied = 0;  ///< denials the policy requires (successes)
  Counters counters;    ///< summed per-op deltas
};

struct PhaseResult {
  std::array<ClassStats, kOpClasses> cls;
  Counters maintenance;  ///< flush and outage-event windows
  double wall_s = 0;  ///< without probe time
  double cpu_s = 0;   ///< without probe time
  double scale = 1;   ///< wall_s * scale is the phase at the reference speed
  telemetry::Snapshot before, after;  ///< registry at the phase boundaries
  std::vector<SpanRec> spans;         ///< traced phases only
  uint64_t lag_max = 0;               ///< traced phases only
  double convergence_ms = 0;          ///< rejoin + replay wall time
  uint64_t rejoined_node_bytes = 0;   ///< store bytes of the rejoined node after replay
  /// Counts over the first spec.determinism_ops ops, for the
  /// same-seed self-check; empty when the phase ran fewer ops.
  std::string fingerprint;

  uint64_t attempted() const;
  uint64_t failed() const;
  Counters op_counters() const;  ///< summed over op classes
};

class World {
 public:
  /// `rep` selects an independent set-up of the same workload and seed
  /// (the program gets its own seed string per repetition).
  World(std::shared_ptr<const pairing::Group> grp, const WorkloadSpec& spec,
        uint64_t seed, int rep, SpeedProbe& probe);
  ~World();

  /// Enrols authorities, owner, user pool and initial files.
  void setup();
  /// Closed-loop timed phase of whole op decks, ending at the first deck
  /// boundary after `seconds` at which every class of the mix has
  /// kTailMinSamples samples. With `traced`, every op runs under a root
  /// span "bench.<op_class>" and the caller must have enabled the
  /// tracer with a sink that appends to `spans`.
  PhaseResult run_phase(double seconds, bool traced);
  /// After the phases: every revoked (user, attribute@authority) must
  /// have taken effect on every live replica. Returns the number of
  /// revocation ops that did not, and prints each violation.
  uint64_t check_revocations();
  /// Server bytes across all nodes over live plaintext bytes.
  double stored_bytes_per_user_byte();

  /// Failures in which the program returned a wrong result (bytes that
  /// differ from those stored, a slot opened against its policy, a
  /// revocation not in effect) rather than a typed error.
  uint64_t wrong_outputs() const { return wrong_outputs_; }

 private:
  struct User {
    std::string uid;
    std::set<size_t> attrs;                       ///< attribute indices held
    std::set<std::pair<size_t, size_t>> revoked;  ///< (authority, attribute)
  };
  struct Revocation {
    std::string uid;
    size_t authority = 0, attribute = 0;
    uint32_t from_version = 0;
    bool op_failed = false;  ///< the revoke call itself threw
  };
  struct Slot {
    size_t authority, attribute;
  };

  std::vector<Slot> slot_policy(size_t file, size_t component) const;
  std::string policy_string(size_t file, size_t component) const;
  bool eligible(const User& u, size_t file, size_t component) const;
  Bytes payload(size_t file, uint64_t rev, size_t component) const;
  double uniform();
  /// Next op class from the current deck, dealing a fresh shuffled
  /// deck when it runs out.
  size_t next_class();

  void enroll();
  /// Bumps the file's revision and builds its components.
  std::vector<cloud::DataComponent> next_revision(size_t file);
  /// Uploads a revision; `acceptable_` keeps both revisions while the
  /// call is in flight, so a failed upload leaves either one valid.
  void upload(size_t file, const std::vector<cloud::DataComponent>& comps);
  /// Runs one op; returns {failed, denied}.
  std::pair<bool, bool> do_download(size_t file);
  std::pair<bool, bool> do_store(size_t file);
  std::pair<bool, bool> do_revoke(size_t* cls);
  std::pair<bool, bool> do_enroll();
  Counters snapshot();
  void fail(const std::string& what, bool wrong_output = false);

  std::shared_ptr<const pairing::Group> grp_;
  WorkloadSpec spec_;
  uint64_t seed_;
  crypto::Drbg rng_;
  loadgen::ZipfSampler zipf_;
  std::unique_ptr<cloud::CloudSystem> sys_;
  engine::CryptoEngine& engine_;
  SpeedProbe& probe_;
  std::array<telemetry::Counter*, kRegCounters> reg_{};
  std::vector<User> users_;
  std::vector<uint64_t> rev_;                      ///< current revision per file
  std::vector<std::vector<uint64_t>> acceptable_;  ///< revisions a download may return
  std::vector<Revocation> revocations_;
  std::vector<size_t> deck_;
  uint64_t failures_ = 0;
  uint64_t wrong_outputs_ = 0;
  double last_ms_ = 0;  ///< latency of the last op's system call
};

}  // namespace maabe::perfbench
