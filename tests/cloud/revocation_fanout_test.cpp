// Revocation fan-out and revision retirement (DESIGN.md §18).
//
// Fan-out: while distribute_revocation sends the regenerated key and the
// update keys, each consumer delivery is accepted on arrival and its
// decode-and-apply work queues per consumer; the queues drain with one
// engine sweep. Invariants:
//   1. Keys, stored bytes, wire bytes and engine op counts do not depend
//      on the engine thread count.
//   2. Per consumer, deliveries apply in delivery order — including a
//      parked delivery replayed inside a later fan-out.
//   3. One consumer's failed apply never stops another's; the first
//      failure in consumer order is rethrown after the owners ran.
//   4. A malformed epoch message fails with the same WireError at any
//      thread count, and its 2PC aborts cleanly.
// Retirement: the owner forgets a superseded revision only once its
// replacement is on every replica; until then the old one stays
// tracked and keeps receiving UpdateInfo.
// Registered under the `chaos` ctest label.
#include <gtest/gtest.h>

#include "abe/serial.h"
#include "cloud/system.h"
#include "common/errors.h"
#include "engine/engine.h"

namespace maabe::cloud {
namespace {

using pairing::Group;

std::unique_ptr<CloudSystem> make_system(std::shared_ptr<const Group> grp, size_t nodes,
                                         size_t replication) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.replication = replication;
  return std::make_unique<CloudSystem>(grp, "fanout", std::make_unique<LoopbackTransport>(),
                                       RetryPolicy(), cfg);
}

FaultPlan& faults(CloudSystem& sys) {
  return dynamic_cast<LoopbackTransport&>(sys.transport()).faults();
}

/// One authority ("Med": Doctor, Nurse), one owner ("hosp") and the
/// given users, each holding both attributes and a key for hosp.
void enroll(CloudSystem& sys, const std::vector<std::string>& users) {
  sys.add_authority("Med", {"Doctor", "Nurse"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  for (const std::string& uid : users) {
    sys.add_user(uid);
    sys.assign_attributes("Med", uid, {"Doctor", "Nurse"});
    sys.issue_user_key("Med", uid, "hosp");
  }
}

uint32_t key_version(CloudSystem& sys, const std::string& uid) {
  return sys.user(uid).key("hosp", "Med").version;
}

CloudSystem::SlotState slot_state(CloudSystem& sys, const std::string& uid,
                                  const std::string& file_id) {
  const CloudSystem::DownloadReport report = sys.download_report(uid, file_id);
  EXPECT_EQ(report.slots.size(), 1u);
  return report.slots.empty() ? CloudSystem::SlotState::kError : report.slots[0].state;
}

/// Authority version of every copy of `file_id`'s slots on `node`.
std::vector<uint32_t> slot_versions(CloudSystem& sys, const std::string& node,
                                    const std::string& file_id) {
  std::vector<uint32_t> out;
  const auto file = sys.cluster().node_store(node).fetch(file_id);
  for (const SealedSlot& slot : file->slots) out.push_back(slot.key_ct.versions.at("Med"));
  return out;
}

// ------------------------------------------------ thread-count identity --

struct RunDigest {
  std::map<std::string, Bytes> keys;  ///< uid -> serialized hosp/Med key
  std::vector<Bytes> snapshots;       ///< per node
  uint64_t frame_bytes = 0;
  uint64_t stored_bytes = 0;
  uint64_t pairings = 0, final_exps = 0, g1_exps = 0, gt_exps = 0, table_builds = 0;
  size_t tracked = 0;
};

RunDigest revocation_sequence(int threads) {
  const auto grp = Group::test_small();  // fresh engine per run
  engine::CryptoEngine& eng = engine::CryptoEngine::for_group(*grp);
  eng.set_threads(threads);
  auto sys = make_system(grp, 3, 2);
  const std::vector<std::string> users = {"u0", "u1", "u2", "u3", "u4", "u5"};
  enroll(*sys, users);
  for (int f = 0; f < 4; ++f) {
    sys->upload("hosp", "f" + std::to_string(f),
                {{"c.r0", bytes_of("v0"), f % 2 == 0 ? "Doctor@Med" : "Nurse@Med"}});
  }
  for (int round = 1; round <= 4; ++round) {
    (void)sys->revoke_attribute("Med", "u" + std::to_string(round),
                                round % 2 == 0 ? "Doctor" : "Nurse");
    sys->upload("hosp", "f" + std::to_string(round % 4),
                {{"c.r" + std::to_string(round), bytes_of("v" + std::to_string(round)),
                  "Doctor@Med OR Nurse@Med"}});
  }
  RunDigest d;
  for (const std::string& uid : users)
    d.keys[uid] = abe::serialize(*grp, sys->user(uid).key("hosp", "Med"));
  for (const std::string& name : sys->cluster().node_names())
    d.snapshots.push_back(sys->cluster().snapshot(name));
  d.frame_bytes = sys->meter().totals().frame_bytes;
  d.stored_bytes = sys->cluster().stats().store_totals.bytes;
  const engine::EngineStats s = eng.stats();
  d.pairings = s.pairings;
  d.final_exps = s.final_exps;
  d.g1_exps = s.g1_exps;
  d.gt_exps = s.gt_exps;
  d.table_builds = s.table_builds;
  d.tracked = sys->owner("hosp").tracked_ciphertexts();
  return d;
}

TEST(RevocationFanoutTest, KeysBytesAndCountsMatchAcrossThreadCounts) {
  const RunDigest serial = revocation_sequence(1);
  const RunDigest pooled = revocation_sequence(4);
  EXPECT_EQ(serial.keys, pooled.keys);
  EXPECT_EQ(serial.snapshots, pooled.snapshots);
  EXPECT_EQ(serial.frame_bytes, pooled.frame_bytes);
  EXPECT_EQ(serial.stored_bytes, pooled.stored_bytes);
  EXPECT_EQ(serial.pairings, pooled.pairings);
  EXPECT_EQ(serial.final_exps, pooled.final_exps);
  EXPECT_EQ(serial.g1_exps, pooled.g1_exps);
  EXPECT_EQ(serial.gt_exps, pooled.gt_exps);
  EXPECT_EQ(serial.table_builds, pooled.table_builds);
  EXPECT_EQ(serial.tracked, 4u);  // one live revision per file
  EXPECT_EQ(pooled.tracked, 4u);
}

// ------------------------------------------------- per-consumer order --

// A parked update key replays inside the next fan-out window and must
// apply before the update key that window sends.
TEST(RevocationFanoutTest, ParkedUpdateKeyAppliesBeforeTheNextUpdateKey) {
  const auto grp = Group::test_small();
  auto sys = make_system(grp, 3, 2);
  enroll(*sys, {"alice", "bob", "carol"});
  sys->upload("hosp", "rec", {{"a", bytes_of("x"), "Doctor@Med"}});

  // Every attempt of bob's first update key fails: it parks.
  faults(*sys).fail_next("aa:Med", "user:bob", RetryPolicy().max_attempts);
  (void)sys->revoke_attribute("Med", "alice", "Doctor");
  EXPECT_EQ(sys->health().pending_by_destination["user:bob"], 1u);
  EXPECT_EQ(key_version(*sys, "bob"), 1u);

  // The next revocation's update key to bob replays the parked one
  // first; both land in the window and apply v1->v2->v3 in order.
  (void)sys->revoke_attribute("Med", "carol", "Nurse");
  EXPECT_EQ(sys->health().pending_deliveries, 0u);
  EXPECT_EQ(key_version(*sys, "bob"), sys->authority("Med").version());
  EXPECT_EQ(slot_state(*sys, "bob", "rec"), CloudSystem::SlotState::kOk);
}

// Same, ahead of the consumer's own regenerated key: applying the
// regenerated key first would leave the parked update key unappliable.
TEST(RevocationFanoutTest, ParkedUpdateKeyAppliesBeforeTheRegeneratedKey) {
  const auto grp = Group::test_small();
  auto sys = make_system(grp, 3, 2);
  enroll(*sys, {"alice", "bob"});
  sys->upload("hosp", "rec", {{"a", bytes_of("x"), "Doctor@Med"}});

  faults(*sys).fail_next("aa:Med", "user:bob", RetryPolicy().max_attempts);
  (void)sys->revoke_attribute("Med", "alice", "Nurse");
  EXPECT_EQ(sys->health().pending_by_destination["user:bob"], 1u);

  EXPECT_NO_THROW((void)sys->revoke_attribute("Med", "bob", "Doctor"));
  EXPECT_EQ(sys->health().pending_deliveries, 0u);
  EXPECT_EQ(key_version(*sys, "bob"), sys->authority("Med").version());
  EXPECT_EQ(slot_state(*sys, "bob", "rec"), CloudSystem::SlotState::kNoKey);
  EXPECT_EQ(slot_state(*sys, "alice", "rec"), CloudSystem::SlotState::kOk);
}

// ------------------------------------------------------ error contract --

TEST(RevocationFanoutTest, FailedApplyDoesNotStopOtherConsumers) {
  const auto grp = Group::test_small();
  auto sys = make_system(grp, 3, 2);
  enroll(*sys, {"alice", "bob", "carol", "dave", "erin"});
  sys->upload("hosp", "rec", {{"a", bytes_of("x"), "Doctor@Med"}});

  // bob's and dave's keys claim versions no update key will match.
  for (const auto& [uid, skew] : {std::pair<std::string, uint32_t>{"bob", 5}, {"dave", 7}}) {
    abe::UserSecretKey skewed = sys->user(uid).key("hosp", "Med");
    skewed.version += skew;
    sys->user(uid).replace_key(skewed);
  }

  std::string error;
  try {
    (void)sys->revoke_attribute("Med", "alice", "Doctor");
  } catch (const SchemeError& e) {
    error = e.what();
  }
  // The first failure in consumer order is bob's (key at version 6).
  EXPECT_NE(error.find("key at version 6"), std::string::npos) << error;

  // Every other delivery still applied, and the owners were reached:
  // the epoch committed, so the revoked user is locked out.
  const uint32_t v = sys->authority("Med").version();
  EXPECT_EQ(key_version(*sys, "carol"), v);
  EXPECT_EQ(key_version(*sys, "erin"), v);
  EXPECT_EQ(key_version(*sys, "alice"), v);
  EXPECT_EQ(sys->health().pending_deliveries, 0u);
  EXPECT_EQ(slot_state(*sys, "carol", "rec"), CloudSystem::SlotState::kOk);
  EXPECT_EQ(slot_state(*sys, "alice", "rec"), CloudSystem::SlotState::kNoKey);
}

// Within one consumer, a failed delivery does not block the later ones:
// the regenerated key still replaces the key the update could not fix.
TEST(RevocationFanoutTest, FailedDeliveryDoesNotBlockTheConsumersLaterOnes) {
  const auto grp = Group::test_small();
  auto sys = make_system(grp, 3, 2);
  enroll(*sys, {"alice", "bob"});
  sys->upload("hosp", "rec", {{"a", bytes_of("x"), "Doctor@Med"}});

  faults(*sys).fail_next("aa:Med", "user:bob", RetryPolicy().max_attempts);
  (void)sys->revoke_attribute("Med", "alice", "Nurse");
  ASSERT_EQ(sys->health().pending_by_destination["user:bob"], 1u);
  abe::UserSecretKey skewed = sys->user("bob").key("hosp", "Med");
  skewed.version += 5;
  sys->user("bob").replace_key(skewed);

  // The parked update key replays first and fails; the regenerated key
  // behind it in bob's queue still lands.
  EXPECT_THROW((void)sys->revoke_attribute("Med", "bob", "Doctor"), SchemeError);
  EXPECT_EQ(key_version(*sys, "bob"), sys->authority("Med").version());
  EXPECT_EQ(sys->health().pending_deliveries, 0u);
  EXPECT_EQ(slot_state(*sys, "bob", "rec"), CloudSystem::SlotState::kNoKey);
  EXPECT_EQ(slot_state(*sys, "alice", "rec"), CloudSystem::SlotState::kOk);
}

// --------------------------------------------- epoch decode determinism --

TEST(RevocationFanoutTest, MalformedUpdateInfoFailsAlikeAtAnyThreadCount) {
  const auto grp = Group::test_small();
  auto sys = make_system(grp, 3, 2);
  enroll(*sys, {"alice", "bob"});
  for (int f = 0; f < 6; ++f)
    sys->upload("hosp", "f" + std::to_string(f), {{"a", bytes_of("x"), "Doctor@Med"}});

  // Build a real epoch by hand, then break UpdateInfo 2 (truncated) and
  // UpdateInfo 4 (trailing byte): two different WireErrors.
  AttributeAuthority& aa = sys->authority("Med");
  const uint32_t from = aa.version();
  const auto bundle = aa.revoke(sys->user("alice").public_key(), "Doctor");
  const abe::UpdateKey& uk = bundle.update_keys.at("hosp");
  DataOwner& owner = sys->owner("hosp");
  ASSERT_TRUE(owner.apply_update(uk));
  const std::vector<abe::UpdateInfo> infos = owner.update_infos("Med", from);
  ASSERT_EQ(infos.size(), 6u);
  Writer w;
  w.var_bytes(abe::serialize(*grp, uk));
  w.u32(static_cast<uint32_t>(infos.size()));
  for (size_t i = 0; i < infos.size(); ++i) {
    Bytes ui = abe::serialize(*grp, infos[i]);
    if (i == 2) ui.pop_back();
    if (i == 4) ui.push_back(0);
    w.var_bytes(ui);
  }
  const Bytes epoch = w.take();

  Cluster& cluster = sys->cluster();
  const std::vector<Bytes> before = {cluster.snapshot("node:0"), cluster.snapshot("node:1"),
                                     cluster.snapshot("node:2")};
  std::vector<std::string> errors;
  for (const int threads : {1, 4, 1, 4}) {
    engine::CryptoEngine::for_group(*grp).set_threads(threads);
    try {
      cluster.handle_epoch(cluster.coordinator(), epoch);
      ADD_FAILURE() << "malformed epoch staged at " << threads << " threads";
    } catch (const WireError& e) {
      errors.push_back(e.what());
    }
  }
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_NE(errors[0].find("truncated"), std::string::npos) << errors[0];
  for (const std::string& e : errors) EXPECT_EQ(e, errors[0]);

  // Clean abort: every attempt counted, nothing staged, stores intact.
  EXPECT_EQ(cluster.stats().epoch_aborts, 4u);
  EXPECT_EQ(cluster.stats().epoch_commits, 0u);
  for (const NodeHealth& h : sys->cluster_health()) EXPECT_EQ(h.epochs_staged_open, 0u);
  EXPECT_EQ(before, (std::vector<Bytes>{cluster.snapshot("node:0"),
                                        cluster.snapshot("node:1"),
                                        cluster.snapshot("node:2")}));
}

// ------------------------------------------------- revision retirement --

TEST(RevisionRetirementTest, TrackedCiphertextsStayAtTheLiveCount) {
  const auto grp = Group::test_small();
  auto sys = make_system(grp, 3, 2);
  enroll(*sys, {"alice", "bob"});
  const std::vector<std::string> files = {"f0", "f1", "f2", "f3"};
  for (int rev = 0; rev < 5; ++rev) {
    for (const std::string& f : files) {
      sys->upload("hosp", f,
                  {{"c.r" + std::to_string(rev), bytes_of(f + std::to_string(rev)),
                    "Doctor@Med"}});
    }
    EXPECT_EQ(sys->owner("hosp").tracked_ciphertexts(), files.size()) << "rev " << rev;
  }
  // Epochs carry UpdateInfo for live ciphertexts only and still commit.
  EXPECT_EQ(sys->revoke_attribute("Med", "alice", "Doctor"), 2 * files.size());
  EXPECT_EQ(slot_state(*sys, "bob", "f0"), CloudSystem::SlotState::kOk);
  EXPECT_EQ(slot_state(*sys, "alice", "f0"), CloudSystem::SlotState::kNoKey);
}

TEST(RevisionRetirementTest, ReplicaDownKeepsTheOldRevisionTracked) {
  const auto grp = Group::test_small();
  auto sys = make_system(grp, 3, 2);
  enroll(*sys, {"alice", "bob"});
  sys->upload("hosp", "f", {{"c.r0", bytes_of("old"), "Doctor@Med"}});
  ASSERT_EQ(sys->owner("hosp").tracked_ciphertexts(), 1u);

  // Kill the secondary replica: the re-upload reaches the primary, its
  // replication parks, so the old revision may still live on the dead
  // node and must stay tracked.
  Cluster& cluster = sys->cluster();
  const std::vector<std::string> replicas = cluster.replicas_for("f");
  ASSERT_EQ(replicas.size(), 2u);
  cluster.kill_node(replicas[1]);
  sys->upload("hosp", "f", {{"c.r1", bytes_of("new"), "Doctor@Med"}});
  EXPECT_EQ(sys->owner("hosp").tracked_ciphertexts(), 2u);

  // The revocation's 2PC cannot stage on the dead node: the epoch parks.
  (void)sys->revoke_attribute("Med", "alice", "Doctor");
  EXPECT_GT(sys->health().pending_deliveries, 0u);
  EXPECT_EQ(sys->owner("hosp").tracked_ciphertexts(), 2u);

  cluster.restart_node(replicas[1]);
  EXPECT_EQ(sys->flush_pending(), 0u);
  const uint32_t v = sys->authority("Med").version();
  for (const std::string& node : replicas) {
    EXPECT_EQ(slot_versions(*sys, node, "f"), std::vector<uint32_t>{v}) << node;
  }
  EXPECT_EQ(cluster.stats().epoch_commits, 1u);
  EXPECT_EQ(slot_state(*sys, "alice", "f"), CloudSystem::SlotState::kNoKey);
  const CloudSystem::DownloadReport bob = sys->download_report("bob", "f");
  ASSERT_EQ(bob.slots.size(), 1u);
  EXPECT_EQ(bob.slots[0].component, "c.r1");
  EXPECT_EQ(bob.slots[0].state, CloudSystem::SlotState::kOk);

  // A later re-upload that reaches both replicas retires both old ones.
  sys->upload("hosp", "f", {{"c.r2", bytes_of("newer"), "Doctor@Med"}});
  EXPECT_EQ(sys->owner("hosp").tracked_ciphertexts(), 1u);
}

// An older upload parked at the secondary replays during the next
// upload's fan-out and is re-coordinated from there, so the primary can
// end up holding it. The newer upload must not retire it.
TEST(RevisionRetirementTest, UploadParkedAtAnotherReplicaKeepsItsRevisionTracked) {
  const auto grp = Group::test_small();
  auto sys = make_system(grp, 3, 2);
  enroll(*sys, {"alice", "bob"});
  Cluster& cluster = sys->cluster();
  const std::vector<std::string> replicas = cluster.replicas_for("f");
  ASSERT_EQ(replicas.size(), 2u);
  sys->upload("hosp", "f", {{"c.r0", bytes_of("r0"), "Doctor@Med"}});

  // Primary down: r1 routes to the secondary, whose frames all fail, so
  // the upload parks in the secondary's queue.
  cluster.kill_node(replicas[0]);
  faults(*sys).fail_next("owner:hosp", replicas[1], RetryPolicy().max_attempts);
  sys->upload("hosp", "f", {{"c.r1", bytes_of("r1"), "Doctor@Med"}});
  EXPECT_EQ(sys->health().pending_by_destination[replicas[1]], 1u);
  cluster.restart_node(replicas[0]);

  // r2 routes to the primary; its replication flushes r1 first.
  sys->upload("hosp", "f", {{"c.r2", bytes_of("r2"), "Doctor@Med"}});
  EXPECT_EQ(sys->health().pending_deliveries, 0u);

  // Whatever each replica now holds, the epoch has its UpdateInfo.
  (void)sys->revoke_attribute("Med", "alice", "Doctor");
  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_EQ(cluster.stats().epoch_aborts, 0u);
  EXPECT_EQ(cluster.stats().epoch_commits, 1u);
  const uint32_t v = sys->authority("Med").version();
  for (const std::string& node : replicas) {
    EXPECT_EQ(slot_versions(*sys, node, "f"), std::vector<uint32_t>{v}) << node;
  }
  EXPECT_EQ(slot_state(*sys, "alice", "f"), CloudSystem::SlotState::kNoKey);
}

}  // namespace
}  // namespace maabe::cloud
