#include "abe/serial.h"

#include <gtest/gtest.h>

#include "abe/scheme.h"
#include "common/errors.h"
#include "lsss/parser.h"

namespace maabe::abe {
namespace {

using lsss::LsssMatrix;
using lsss::parse_policy;
using pairing::Group;
using pairing::GT;

class SerialTest : public ::testing::Test {
 protected:
  SerialTest() : grp(Group::test_small()), rng("serial-test") {
    mk = owner_gen(*grp, "owner", rng);
    share = owner_share(*grp, mk);
    vk = aa_setup(*grp, "Med", rng);
    user = ca_register_user(*grp, "alice", rng);
  }

  std::shared_ptr<const Group> grp;
  crypto::Drbg rng;
  OwnerMasterKey mk;
  OwnerSecretShare share;
  AuthorityVersionKey vk;
  UserPublicKey user;
};

TEST_F(SerialTest, UserPublicKeyRoundTrip) {
  const Bytes b = serialize(*grp, user);
  const UserPublicKey back = deserialize_user_public_key(*grp, b);
  EXPECT_EQ(back.uid, user.uid);
  EXPECT_EQ(back.pk, user.pk);
}

TEST_F(SerialTest, OwnerSecretShareRoundTrip) {
  const Bytes b = serialize(*grp, share);
  const OwnerSecretShare back = deserialize_owner_secret_share(*grp, b);
  EXPECT_EQ(back.owner_id, share.owner_id);
  EXPECT_EQ(back.g_inv_beta, share.g_inv_beta);
  EXPECT_EQ(back.r_over_beta, share.r_over_beta);
}

TEST_F(SerialTest, AuthorityPublicKeyRoundTrip) {
  const AuthorityPublicKey pk = aa_public_key(*grp, vk);
  const AuthorityPublicKey back =
      deserialize_authority_public_key(*grp, serialize(*grp, pk));
  EXPECT_EQ(back.aid, pk.aid);
  EXPECT_EQ(back.version, pk.version);
  EXPECT_EQ(back.e_gg_alpha, pk.e_gg_alpha);
}

TEST_F(SerialTest, PublicAttributeKeyRoundTrip) {
  const PublicAttributeKey pk = aa_attribute_key(*grp, vk, "Doctor");
  const PublicAttributeKey back =
      deserialize_public_attribute_key(*grp, serialize(*grp, pk));
  EXPECT_EQ(back.attr.qualified(), "Doctor@Med");
  EXPECT_EQ(back.key, pk.key);
}

TEST_F(SerialTest, UserSecretKeyRoundTrip) {
  const UserSecretKey sk = aa_keygen(*grp, vk, share, user, {"Doctor", "Nurse"});
  const UserSecretKey back = deserialize_user_secret_key(*grp, serialize(*grp, sk));
  EXPECT_EQ(back.uid, sk.uid);
  EXPECT_EQ(back.aid, sk.aid);
  EXPECT_EQ(back.owner_id, sk.owner_id);
  EXPECT_EQ(back.version, sk.version);
  EXPECT_EQ(back.k, sk.k);
  ASSERT_EQ(back.kx.size(), 2u);
  EXPECT_EQ(back.kx.at("Doctor@Med"), sk.kx.at("Doctor@Med"));
  EXPECT_EQ(back.attributes(), sk.attributes());
}

TEST_F(SerialTest, CiphertextRoundTripAndDecrypts) {
  std::map<std::string, AuthorityPublicKey> apks{{"Med", aa_public_key(*grp, vk)}};
  std::map<std::string, PublicAttributeKey> attr_pks;
  for (const char* n : {"Doctor", "Nurse"}) {
    const auto pk = aa_attribute_key(*grp, vk, n);
    attr_pks.emplace(pk.attr.qualified(), pk);
  }
  const GT m = grp->gt_random(rng);
  const LsssMatrix policy = LsssMatrix::from_policy(parse_policy("Doctor@Med AND Nurse@Med"));
  const auto [ct, rec] = encrypt(*grp, mk, "ct-1", m, policy, apks, attr_pks, rng);

  const Ciphertext back = deserialize_ciphertext(*grp, serialize(*grp, ct));
  EXPECT_EQ(back.id, ct.id);
  EXPECT_EQ(back.owner_id, ct.owner_id);
  EXPECT_EQ(back.c, ct.c);
  EXPECT_EQ(back.c_prime, ct.c_prime);
  ASSERT_EQ(back.ci.size(), ct.ci.size());
  for (size_t i = 0; i < ct.ci.size(); ++i) EXPECT_EQ(back.ci[i], ct.ci[i]);
  EXPECT_EQ(back.versions, ct.versions);
  EXPECT_EQ(back.policy.policy_text(), ct.policy.policy_text());

  // The deserialized ciphertext decrypts.
  std::map<std::string, UserSecretKey> keys;
  keys.emplace("Med", aa_keygen(*grp, vk, share, user, {"Doctor", "Nurse"}));
  EXPECT_EQ(decrypt(*grp, back, user, keys), m);
}

TEST_F(SerialTest, UpdateKeyAndInfoRoundTrip) {
  const AuthorityVersionKey new_vk = aa_rekey(*grp, vk, rng).new_vk;
  const UpdateKey uk = aa_make_update_key(*grp, vk, new_vk, share);
  const UpdateKey uk2 = deserialize_update_key(*grp, serialize(*grp, uk));
  EXPECT_EQ(uk2.aid, uk.aid);
  EXPECT_EQ(uk2.owner_id, uk.owner_id);
  EXPECT_EQ(uk2.from_version, 1u);
  EXPECT_EQ(uk2.to_version, 2u);
  EXPECT_EQ(uk2.uk1, uk.uk1);
  EXPECT_EQ(uk2.uk2, uk.uk2);

  UpdateInfo ui;
  ui.aid = "Med";
  ui.owner_id = "owner";
  ui.ct_id = "ct-1";
  ui.from_version = 1;
  ui.to_version = 2;
  ui.ui.emplace("Doctor@Med", grp->g1_random(rng));
  const UpdateInfo ui2 = deserialize_update_info(*grp, serialize(*grp, ui));
  EXPECT_EQ(ui2.ct_id, "ct-1");
  EXPECT_EQ(ui2.ui.at("Doctor@Med"), ui.ui.at("Doctor@Med"));
}

TEST_F(SerialTest, UpdateKeySubgroupCheckDependsOnReceiver) {
  const AuthorityVersionKey new_vk = aa_rekey(*grp, vk, rng).new_vk;
  UpdateKey uk = aa_make_update_key(*grp, vk, new_vk, share);

  // Forge an on-curve point outside the order-r subgroup (decompression
  // never checks membership, and a random x lands in the subgroup only
  // with probability r / (q+1)).
  pairing::G1 rogue;
  for (uint8_t i = 1;; ++i) {
    Bytes enc(grp->g1_size(), 0);
    enc[enc.size() - 2] = i;  // low x byte; sign flag 0
    try {
      rogue = grp->g1_from_bytes(enc);
    } catch (const WireError&) {
      continue;  // x not on the curve, try the next one
    }
    if (!rogue.in_subgroup()) break;
  }
  uk.uk1 = rogue;
  const Bytes b = serialize(*grp, uk);

  // Users fold the UK into key material: off-subgroup points rejected.
  EXPECT_THROW(deserialize_update_key(*grp, b), WireError);
  // The server only injects uk1 into ciphertext components — same trust
  // model as per-row ciphertext points, so on-curve suffices.
  const UpdateKey accepted = deserialize_update_key(*grp, b, UkCheck::kCiphertextPath);
  EXPECT_EQ(accepted.uk1, rogue);

  // A point off the curve entirely is rejected on both paths: splice an
  // x with no curve point over uk1's compressed encoding, which sits
  // just before uk2.
  Bytes off_x(grp->g1_size(), 0);
  bool found = false;
  for (int i = 1; i < 256 && !found; ++i) {
    off_x[off_x.size() - 2] = static_cast<uint8_t>(i);
    try {
      (void)grp->g1_from_bytes(off_x);
    } catch (const WireError&) {
      found = true;  // x^3 + x is a non-residue: no point has this x
    }
  }
  ASSERT_TRUE(found);
  Bytes off = b;
  std::copy(off_x.begin(), off_x.end(),
            off.end() - static_cast<std::ptrdiff_t>(grp->zr_size() + grp->g1_size()));
  EXPECT_THROW(deserialize_update_key(*grp, off, UkCheck::kCiphertextPath), WireError);
  EXPECT_THROW(deserialize_update_key(*grp, off), WireError);
}

TEST_F(SerialTest, SecretMaterialRoundTrips) {
  const OwnerMasterKey mk2 = deserialize_owner_master_key(*grp, serialize(*grp, mk));
  EXPECT_EQ(mk2.owner_id, mk.owner_id);
  EXPECT_EQ(mk2.beta, mk.beta);
  EXPECT_EQ(mk2.r, mk.r);

  const AuthorityVersionKey vk2 =
      deserialize_authority_version_key(*grp, serialize(*grp, vk));
  EXPECT_EQ(vk2.aid, vk.aid);
  EXPECT_EQ(vk2.version, vk.version);
  EXPECT_EQ(vk2.alpha, vk.alpha);

  EncryptionRecord rec{"ct-9", grp->zr_random(rng)};
  const EncryptionRecord rec2 = deserialize_encryption_record(*grp, serialize(*grp, rec));
  EXPECT_EQ(rec2.ct_id, "ct-9");
  EXPECT_EQ(rec2.s, rec.s);
}

TEST_F(SerialTest, SecretMaterialRejectsDegenerateValues) {
  // A zero beta or alpha would make the key material useless; the
  // decoders reject it outright.
  OwnerMasterKey zero_mk = mk;
  zero_mk.beta = grp->zr_zero();
  EXPECT_THROW(deserialize_owner_master_key(*grp, serialize(*grp, zero_mk)), WireError);
  AuthorityVersionKey zero_vk = vk;
  zero_vk.alpha = grp->zr_zero();
  EXPECT_THROW(deserialize_authority_version_key(*grp, serialize(*grp, zero_vk)),
               WireError);
}

TEST_F(SerialTest, WrongTagRejected) {
  const Bytes b = serialize(*grp, user);
  EXPECT_THROW(deserialize_ciphertext(*grp, b), WireError);
  EXPECT_THROW(deserialize_user_secret_key(*grp, b), WireError);
}

TEST_F(SerialTest, TruncationRejected) {
  const UserSecretKey sk = aa_keygen(*grp, vk, share, user, {"Doctor"});
  const Bytes b = serialize(*grp, sk);
  for (size_t len : {size_t{0}, size_t{1}, b.size() / 2, b.size() - 1}) {
    EXPECT_THROW(deserialize_user_secret_key(*grp, ByteView(b.data(), len)), WireError)
        << len;
  }
}

TEST_F(SerialTest, TrailingGarbageRejected) {
  Bytes b = serialize(*grp, user);
  b.push_back(0);
  EXPECT_THROW(deserialize_user_public_key(*grp, b), WireError);
}

TEST_F(SerialTest, CorruptedPointRejected) {
  Bytes b = serialize(*grp, user);
  // Flip a byte inside the point encoding; decompression or the sign
  // flag check must fail with overwhelming probability. Try several
  // positions to be robust against the rare "still on curve" case.
  int rejected = 0;
  for (size_t pos = b.size() - grp->g1_size(); pos < b.size(); ++pos) {
    Bytes bad = b;
    bad[pos] ^= 0x5a;
    try {
      (void)deserialize_user_public_key(*grp, bad);
    } catch (const WireError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST_F(SerialTest, GroupMaterialBytesFormula) {
  std::map<std::string, AuthorityPublicKey> apks{{"Med", aa_public_key(*grp, vk)}};
  std::map<std::string, PublicAttributeKey> attr_pks;
  for (const char* n : {"Doctor", "Nurse", "Admin"}) {
    const auto pk = aa_attribute_key(*grp, vk, n);
    attr_pks.emplace(pk.attr.qualified(), pk);
  }
  const LsssMatrix policy =
      LsssMatrix::from_policy(parse_policy("Doctor@Med AND Nurse@Med AND Admin@Med"));
  const auto [ct, rec] =
      encrypt(*grp, mk, "x", grp->gt_random(rng), policy, apks, attr_pks, rng);
  // |GT| + (l+1)|G| with l = 3.
  EXPECT_EQ(ciphertext_group_material_bytes(*grp, ct),
            grp->gt_size() + 4 * grp->g1_size());
}

}  // namespace
}  // namespace maabe::abe
