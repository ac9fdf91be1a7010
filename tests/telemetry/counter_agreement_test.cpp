// Counter agreement (DESIGN.md §11): each counted event bumps one
// InstanceCounter, which feeds the process-wide registry series in the
// same call. So for a system driven through stores, downloads, a
// revocation, a node outage, a rejoin and an operator sync, every
// counter its stats views report (ClusterStats, RecoveryStats, summed
// ServerStats, the reliable link's and the durable queues') equals the
// delta of the registry series it feeds — and a second system alive in
// the same process keeps its own counts at 0.
// Registered under the `observability` ctest label (also run under the
// observability-asan/-tsan presets).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "cloud/system.h"
#include "telemetry/metrics.h"

namespace maabe::cloud {
namespace {

using pairing::Group;

std::unique_ptr<CloudSystem> make_system(std::shared_ptr<const Group> grp,
                                         const std::string& seed) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replication = 2;
  return std::make_unique<CloudSystem>(std::move(grp), seed,
                                       std::make_unique<LoopbackTransport>(),
                                       RetryPolicy(), cfg);
}

/// One system's instance counts, keyed by the registry series each feeds.
std::map<std::string, uint64_t> instance_counts(const CloudSystem& sys) {
  const ClusterStats cs = sys.cluster().stats();
  const RecoveryStats rs = sys.cluster().recovery().stats();
  const CloudSystem::Health h = sys.health();
  return {
      {"maabe_cluster_replication_ops_total", cs.replication_ops_sent},
      {"maabe_cluster_replication_applied_total", cs.replication_ops_applied},
      {"maabe_cluster_read_repairs_total", cs.read_repairs},
      {"maabe_cluster_quorum_reads_total", cs.quorum_reads},
      {"maabe_cluster_quorum_failures_total", cs.quorum_failures},
      {"maabe_cluster_epochs_2pc_total", cs.epochs_2pc},
      {"maabe_cluster_epoch_commits_total", cs.epoch_commits},
      {"maabe_cluster_epoch_aborts_total", cs.epoch_aborts},
      {"maabe_cluster_epoch_commit_orphans_total", cs.epoch_commit_orphans},
      {"maabe_cluster_replication_shed_total", cs.replication_sheds},
      {"maabe_cluster_restart_pruned_total", cs.restart_prunes},
      {"maabe_server_stores_total", cs.store_totals.stores},
      {"maabe_server_fetches_total", cs.store_totals.fetches},
      {"maabe_server_reencrypted_slots_total", cs.store_totals.reencrypted_slots},
      {"maabe_server_epochs_committed_total", cs.server_epochs_committed},
      {"maabe_server_epochs_aborted_total", cs.server_epochs_aborted},
      {"maabe_recovery_syncs_total", rs.syncs},
      {"maabe_recovery_sync_rounds_total", rs.sync_rounds},
      {"maabe_recovery_shards_divergent_total", rs.shards_divergent},
      {"maabe_recovery_files_transferred_total", rs.files_transferred},
      {"maabe_recovery_bytes_transferred_total", rs.bytes_transferred},
      {"maabe_recovery_epochs_resolved_total",
       rs.epochs_resolved_commit + rs.epochs_resolved_abort},
      {"maabe_recovery_rejoins_total", rs.rejoins},
      {"maabe_recovery_sync_failures_total", rs.sync_failures},
      {"maabe_transport_sends_ok_total", h.sends_ok},
      {"maabe_transport_sends_failed_total", h.sends_failed},
      {"maabe_transport_retries_total", h.retries},
      {"maabe_transport_parked_rejected_total", sys.parked_rejected_total()},
      {"maabe_transport_parked_pruned_total", sys.parked_pruned_total()},
  };
}

void enroll(CloudSystem& sys) {
  sys.add_authority("Med", {"Doctor"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  for (const char* uid : {"alice", "bob"}) {
    sys.add_user(uid);
    sys.assign_attributes("Med", uid, {"Doctor"});
    sys.issue_user_key("Med", uid, "hosp");
  }
}

void upload(CloudSystem& sys, const std::string& file_id) {
  sys.upload("hosp", file_id, {{"a", bytes_of("record " + file_id), "Doctor@Med"}});
}

TEST(CounterAgreement, InstanceCountsEqualRegistryDeltasAcrossTwoSystems) {
  const auto grp = Group::test_small();
  auto busy = make_system(grp, "agreement/busy");
  auto idle = make_system(grp, "agreement/idle");
  const telemetry::Snapshot before = telemetry::MetricsRegistry::global().collect();

  enroll(*busy);
  for (const char* f : {"f1", "f2", "f3", "f4"}) upload(*busy, f);
  (void)busy->download("alice", "f1");
  // Two scripted failures on an owner hop: retried sends.
  dynamic_cast<LoopbackTransport&>(busy->transport())
      .faults()
      .fail_next("owner:hosp", busy->cluster().route_for("f5"), 2);
  upload(*busy, "f5");

  // Outage: replication to node:2 parks until its small queue fills and
  // then sheds; the revocation's 2PC aborts and its epoch parks.
  busy->set_pending_cap(2);
  busy->cluster().kill_node("node:2");
  for (const char* f : {"f6", "f7", "f8", "f9"}) upload(*busy, f);
  EXPECT_EQ(busy->revoke_attribute("Med", "bob", "Doctor"), 0u);
  busy->set_pending_cap(0);

  // Rejoin (staged-epoch resolution + scoped anti-entropy), replay the
  // parked epoch, then the operator sync and reads on the healed cluster.
  busy->cluster().restart_node("node:2");
  for (int i = 0; i < 20 && busy->flush_pending() > 0; ++i) {
  }
  (void)busy->cluster().recovery().sync_all();
  (void)busy->download("alice", "f6");

  const telemetry::Snapshot after = telemetry::MetricsRegistry::global().collect();
  const std::map<std::string, uint64_t> counts = instance_counts(*busy);
  for (const auto& [series, value] : counts) {
    EXPECT_EQ(after.counter(series) - before.counter(series), value) << series;
  }
  for (const auto& [series, value] : instance_counts(*idle)) {
    EXPECT_EQ(value, 0u) << series << " moved on the idle system";
  }

  // The scenario reached every kind of event it was built to count.
  for (const char* series :
       {"maabe_cluster_replication_ops_total", "maabe_cluster_quorum_reads_total",
        "maabe_cluster_epoch_commits_total", "maabe_cluster_epoch_aborts_total",
        "maabe_cluster_replication_shed_total", "maabe_server_stores_total",
        "maabe_server_fetches_total", "maabe_server_reencrypted_slots_total",
        "maabe_server_epochs_aborted_total", "maabe_recovery_syncs_total",
        "maabe_recovery_rejoins_total", "maabe_transport_sends_ok_total",
        "maabe_transport_retries_total", "maabe_transport_parked_rejected_total"}) {
    EXPECT_GT(counts.at(series), 0u) << series;
  }
}

}  // namespace
}  // namespace maabe::cloud
