// Unit tests for the erasure-code library: recovery sets (Def. 2), support
// sets (Def. 3), re-encoding functions (Def. 4), encode/decode round trips,
// and the code factories.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "erasure/codes.h"
#include "erasure/linear_code.h"
#include "gf/gf256.h"
#include "gf/prime_field.h"

namespace causalec::erasure {
namespace {

using GF = gf::GF256;

Value random_value(Rng& rng, std::size_t bytes) {
  Value v(bytes);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

/// For F257 values: bytes must decode to canonical field elements, so draw
/// through the field.
Value random_value_f257(Rng& rng, std::size_t bytes) {
  Value v(bytes, 0);
  for (std::size_t i = 0; i + 1 < bytes; i += 2) {
    const std::uint32_t e = gf::F257::from_int(rng.next_u64());
    v[i] = static_cast<std::uint8_t>(e & 0xFF);
    v[i + 1] = static_cast<std::uint8_t>(e >> 8);
  }
  return v;
}

std::vector<Value> random_values(Rng& rng, std::size_t k, std::size_t bytes) {
  std::vector<Value> vals;
  vals.reserve(k);
  for (std::size_t i = 0; i < k; ++i) vals.push_back(random_value(rng, bytes));
  return vals;
}

// ---------------------------------------------------------------------------
// The paper's (5,3) example code.
// ---------------------------------------------------------------------------

TEST(Paper53CodeTest, MinimalRecoverySetsMatchPaper) {
  const auto code = make_paper_5_3(32);
  // Sec. 1.2 lists (1-indexed):
  //   R1 = {{1},{3,4,5},{2,3,4},{2,3,5}}
  //   R2 = {{2},{4,5},{1,3,4},{1,3,5}}
  //   R3 = {{3},{1,2,4},{1,2,5},{1,4,5}}
  const auto as_set = [](const std::vector<RecoverySet>& sets) {
    std::set<RecoverySet> out(sets.begin(), sets.end());
    return out;
  };
  EXPECT_EQ(as_set(code->recovery_sets(0)),
            (std::set<RecoverySet>{{0}, {2, 3, 4}, {1, 2, 3}, {1, 2, 4}}));
  EXPECT_EQ(as_set(code->recovery_sets(1)),
            (std::set<RecoverySet>{{1}, {3, 4}, {0, 2, 3}, {0, 2, 4}}));
  EXPECT_EQ(as_set(code->recovery_sets(2)),
            (std::set<RecoverySet>{{2}, {0, 1, 3}, {0, 1, 4}, {0, 3, 4}}));
}

TEST(Paper53CodeTest, SupportSets) {
  const auto code = make_paper_5_3(32);
  EXPECT_EQ(code->support(0), (std::vector<ObjectId>{0}));
  EXPECT_EQ(code->support(1), (std::vector<ObjectId>{1}));
  EXPECT_EQ(code->support(2), (std::vector<ObjectId>{2}));
  EXPECT_EQ(code->support(3), (std::vector<ObjectId>{0, 1, 2}));
  EXPECT_EQ(code->support(4), (std::vector<ObjectId>{0, 1, 2}));
  EXPECT_TRUE(code->contains(3, 1));
  EXPECT_FALSE(code->contains(0, 1));
}

TEST(Paper53CodeTest, LocalReads) {
  const auto code = make_paper_5_3(32);
  EXPECT_TRUE(code->is_local(0, 0));
  EXPECT_TRUE(code->is_local(1, 1));
  EXPECT_TRUE(code->is_local(2, 2));
  EXPECT_FALSE(code->is_local(3, 0));
  EXPECT_FALSE(code->is_local(0, 1));
}

TEST(Paper53CodeTest, EncodeDecodeEveryMinimalSet) {
  const auto code = make_paper_5_3(32);
  Rng rng(101);
  const std::vector<Value> values = {random_value_f257(rng, 32),
                                     random_value_f257(rng, 32),
                                     random_value_f257(rng, 32)};
  std::vector<Symbol> symbols;
  for (NodeId s = 0; s < 5; ++s) {
    symbols.push_back(code->encode(s, values));
  }
  for (ObjectId obj = 0; obj < 3; ++obj) {
    for (const auto& rs : code->recovery_sets(obj)) {
      std::vector<Symbol> subset;
      for (NodeId s : rs) subset.push_back(symbols[s]);
      EXPECT_EQ(code->decode(obj, rs, subset), values[obj])
          << "object " << obj;
    }
  }
}

TEST(Paper53CodeTest, UncodedServersStoreThePlainValue) {
  const auto code = make_paper_5_3(16);
  Rng rng(7);
  const std::vector<Value> values = {random_value_f257(rng, 16),
                                     random_value_f257(rng, 16),
                                     random_value_f257(rng, 16)};
  for (NodeId s = 0; s < 3; ++s) {
    EXPECT_EQ(code->encode(s, values), values[s]);
  }
}

// ---------------------------------------------------------------------------
// Re-encoding functions Gamma_{i,k} (Definition 4).
// ---------------------------------------------------------------------------

template <typename MakeValue>
void check_reencode_identities(const Code& code, Rng& rng, MakeValue mk) {
  const std::size_t k = code.num_objects();
  std::vector<Value> x, x_prime;
  for (std::size_t i = 0; i < k; ++i) x.push_back(mk(rng));
  for (ObjectId changed = 0; changed < k; ++changed) {
    x_prime = x;
    x_prime[changed] = mk(rng);
    for (NodeId s = 0; s < code.num_servers(); ++s) {
      const Symbol target = code.encode(s, x_prime);
      // Gamma(Phi(x), x_k, x'_k) == Phi(x').
      Symbol sym = code.encode(s, x);
      code.reencode(s, sym, changed, x[changed], x_prime[changed]);
      EXPECT_EQ(sym, target) << "server " << s << " object " << changed;
      // Two-step form: cancel then apply (the form CausalEC uses).
      sym = code.encode(s, x);
      code.reencode(s, sym, changed, x[changed], {});  // -> value 0
      code.reencode(s, sym, changed, {}, x_prime[changed]);
      EXPECT_EQ(sym, target);
      // Gamma with equal values is the identity.
      sym = code.encode(s, x);
      code.reencode(s, sym, changed, x[changed], x[changed]);
      EXPECT_EQ(sym, code.encode(s, x));
    }
  }
}

TEST(ReencodeTest, IdentitiesPaperCodeF257) {
  const auto code = make_paper_5_3(16);
  Rng rng(11);
  check_reencode_identities(*code, rng,
                            [](Rng& r) { return random_value_f257(r, 16); });
}

TEST(ReencodeTest, IdentitiesRsGf256) {
  const auto code = make_systematic_rs(7, 4, 24);
  Rng rng(13);
  check_reencode_identities(*code, rng,
                            [](Rng& r) { return random_value(r, 24); });
}

TEST(ReencodeTest, IdentitiesRandomCodes) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto code = make_random_code(seed, 6, 4, 8, 0.5);
    Rng rng(seed * 1000);
    check_reencode_identities(*code, rng,
                              [](Rng& r) { return random_value(r, 8); });
  }
}

TEST(ReencodeTest, NonSupportObjectIsNoOp) {
  const auto code = make_paper_5_3_gf256(16);
  Rng rng(17);
  const auto values = random_values(rng, 3, 16);
  Symbol sym = code->encode(0, values);  // server 0 stores only X1
  const Symbol before = sym;
  code->reencode(0, sym, 1, values[1], random_value(rng, 16));
  EXPECT_EQ(sym, before);
}

/// Random reencode_batch calls checked against encode() of the final
/// values. Batches hold 1-4 entries and may repeat an object; an entry
/// either replaces the value, zeroes it (empty new), rewrites a zero value
/// (empty old), or keeps it (old == new).
template <typename MakeValue>
void check_batch_equals_encode(const Code& code, Rng& rng, MakeValue mk) {
  using Entry = Code::ReencodeEntry;
  const std::size_t k = code.num_objects();
  const std::size_t bytes = code.value_bytes();
  const Value zero(bytes, 0);
  std::vector<Value> current;  // what every symbol encodes right now
  std::vector<bool> is_zero(k, false);
  for (std::size_t i = 0; i < k; ++i) current.push_back(mk(rng));
  std::vector<Symbol> symbols;
  for (NodeId s = 0; s < code.num_servers(); ++s) {
    symbols.push_back(code.encode(s, current));
  }
  for (int round = 0; round < 12; ++round) {
    // Owns every value the entries point at until the batch has run
    // (spans alias the values' arenas, not the Value handles).
    std::vector<Value> keep;
    std::vector<Entry> entries;
    const std::size_t n = 1 + rng.next_u64() % 4;
    for (std::size_t e = 0; e < n; ++e) {
      const auto x = static_cast<ObjectId>(rng.next_u64() % k);
      keep.push_back(current[x]);
      const std::span<const std::uint8_t> old_value =
          is_zero[x] ? std::span<const std::uint8_t>() : current[x].span();
      switch (rng.next_u64() % 4) {
        case 0:  // zero the object: empty new value
          entries.push_back({x, old_value, {}});
          current[x] = zero;
          is_zero[x] = true;
          break;
        case 1:  // old == new: the identity
          entries.push_back({x, old_value, old_value});
          break;
        default:  // a fresh value (from an empty old when currently zero)
          current[x] = mk(rng);
          is_zero[x] = false;
          entries.push_back({x, old_value, current[x].span()});
          keep.push_back(current[x]);
          break;
      }
    }
    for (NodeId s = 0; s < code.num_servers(); ++s) {
      code.reencode_batch(s, symbols[s], entries);
      ASSERT_EQ(symbols[s], code.encode(s, current))
          << code.describe() << " server " << s << " round " << round;
    }
  }
}

/// A batch that touches no row of the server's encoding (objects outside
/// X_i, or an entry whose old and new are both zero) must not unshare the
/// symbol; one that does touch a row copies it and leaves the sharer alone.
template <typename MakeValue>
void check_untouched_symbol_stays_shared(const Code& code, Rng& rng,
                                         MakeValue mk) {
  using Entry = Code::ReencodeEntry;
  std::vector<Value> values;
  for (std::size_t i = 0; i < code.num_objects(); ++i) {
    values.push_back(mk(rng));
  }
  for (NodeId s = 0; s < code.num_servers(); ++s) {
    Symbol sym = code.encode(s, values);
    const Symbol sharer = sym;
    const Symbol before = code.encode(s, values);
    std::vector<Entry> entries;
    const Value next = mk(rng);
    for (ObjectId x = 0; x < code.num_objects(); ++x) {
      if (code.contains(s, x)) {
        entries.push_back({x, {}, {}});
      } else {
        entries.push_back({x, values[x].span(), next.span()});
      }
    }
    code.reencode_batch(s, sym, entries);
    EXPECT_EQ(sym.data(), sharer.data()) << code.describe() << " server " << s;
    EXPECT_EQ(sym, before);
    if (code.support(s).empty()) continue;
    const ObjectId x = code.support(s).front();
    code.reencode(s, sym, x, values[x], next);
    EXPECT_NE(sym.data(), sharer.data());
    EXPECT_EQ(sharer, before);
  }
}

TEST(ReencodeTest, BatchEqualsEncodeOfFinalValues) {
  for (const std::size_t bytes : {8ul, 24ul, 1000ul, 65536ul}) {
    Rng rng(bytes);
    const auto gf256 = [bytes](Rng& r) { return random_value(r, bytes); };
    const auto f257 = [bytes](Rng& r) { return random_value_f257(r, bytes); };
    std::vector<CodePtr> gf256_codes = {make_six_dc_cross_object(bytes),
                                        make_systematic_rs(6, 4, bytes),
                                        make_paper_5_3_gf256(bytes)};
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      gf256_codes.push_back(make_random_code(seed, 6, 4, bytes, 0.5));
    }
    for (const CodePtr& code : gf256_codes) {
      check_batch_equals_encode(*code, rng, gf256);
      check_untouched_symbol_stays_shared(*code, rng, gf256);
    }
    const CodePtr paper_f257 = make_paper_5_3(bytes);
    check_batch_equals_encode(*paper_f257, rng, f257);
    check_untouched_symbol_stays_shared(*paper_f257, rng, f257);
  }
}

// ---------------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------------

TEST(CodesTest, ReplicationEveryServerIsLocalForEverything) {
  const auto code = make_replication(4, 3, 8);
  for (NodeId s = 0; s < 4; ++s) {
    EXPECT_EQ(code->symbol_bytes(s), 3u * 8u);
    for (ObjectId k = 0; k < 3; ++k) EXPECT_TRUE(code->is_local(s, k));
  }
  // Minimal recovery set for every object is every singleton.
  for (ObjectId k = 0; k < 3; ++k) {
    EXPECT_EQ(code->recovery_sets(k).size(), 4u);
  }
}

TEST(CodesTest, ReplicationRoundTrip) {
  const auto code = make_replication(3, 2, 8);
  Rng rng(3);
  const auto values = random_values(rng, 2, 8);
  for (NodeId s = 0; s < 3; ++s) {
    const auto sym = code->encode(s, values);
    ASSERT_EQ(sym.size(), 16u);
    EXPECT_TRUE(std::equal(values[0].begin(), values[0].end(), sym.begin()));
    EXPECT_TRUE(std::equal(values[1].begin(), values[1].end(),
                           sym.begin() + 8));
    const NodeId servers[] = {s};
    const Symbol syms[] = {sym};
    EXPECT_EQ(code->decode(0, servers, syms), values[0]);
    EXPECT_EQ(code->decode(1, servers, syms), values[1]);
  }
}

TEST(CodesTest, PartialReplicationPlacement) {
  // The Sec. 1.1 partial replication optimum: X1 at {0,2}, X2 at {1,3},
  // X3 at {4}, X4 at {5}.
  const auto code = make_partial_replication(
      {{0}, {1}, {0}, {1}, {2}, {3}}, 4, 8);
  EXPECT_TRUE(code->is_local(0, 0));
  EXPECT_TRUE(code->is_local(2, 0));
  EXPECT_FALSE(code->is_local(1, 0));
  EXPECT_TRUE(code->is_local(4, 2));
  EXPECT_EQ(code->symbol_bytes(0), 8u);
  // X3 recoverable only from server 4.
  EXPECT_EQ(code->recovery_sets(2),
            (std::vector<RecoverySet>{{4}}));
}

TEST(CodesTest, SystematicRsIsMds) {
  for (auto [n, k] : {std::pair<std::size_t, std::size_t>{5, 3},
                      {6, 4},
                      {7, 3},
                      {9, 5}}) {
    const auto code = make_systematic_rs(n, k, 8);
    EXPECT_TRUE(is_mds(*code)) << "RS(" << n << "," << k << ")";
  }
}

TEST(CodesTest, SystematicRsSystematicPart) {
  const auto code = make_systematic_rs(6, 4, 8);
  Rng rng(23);
  const auto values = random_values(rng, 4, 8);
  for (NodeId s = 0; s < 4; ++s) {
    EXPECT_EQ(code->encode(s, values), values[s]);
    EXPECT_TRUE(code->is_local(s, s));
  }
  // Parity servers depend on everything.
  EXPECT_EQ(code->support(4).size(), 4u);
  EXPECT_EQ(code->support(5).size(), 4u);
}

TEST(CodesTest, SystematicRsDecodeFromAnyK) {
  const auto code = make_systematic_rs(6, 4, 16);
  Rng rng(29);
  const auto values = random_values(rng, 4, 16);
  std::vector<Symbol> symbols;
  for (NodeId s = 0; s < 6; ++s) symbols.push_back(code->encode(s, values));
  // Parity-only decode: servers {2,3,4,5}.
  const std::vector<NodeId> servers = {2, 3, 4, 5};
  std::vector<Symbol> subset;
  for (NodeId s : servers) subset.push_back(symbols[s]);
  for (ObjectId k = 0; k < 4; ++k) {
    EXPECT_EQ(code->decode(k, servers, subset), values[k]);
  }
}

TEST(CodesTest, SixDcCrossObjectRecovery) {
  const auto code = make_six_dc_cross_object(8);
  // Seoul=0 (G1+G3), Mumbai=1 (G2+G4), Ireland=2 (G1), London=3 (G2),
  // NCal=4 (G4), Oregon=5 (G3).
  EXPECT_TRUE(code->is_local(2, 0));   // Ireland reads G1 locally
  EXPECT_TRUE(code->is_local(3, 1));
  EXPECT_TRUE(code->is_local(5, 2));
  EXPECT_TRUE(code->is_local(4, 3));
  EXPECT_FALSE(code->is_local(0, 0));  // Seoul stores G1 only coded
  // Seoul + Oregon recover G1 (y_S - y_O = g1).
  const std::vector<NodeId> so = {0, 5};
  EXPECT_TRUE(code->is_recovery_set(0, so));
  // Seoul alone recovers nothing.
  const std::vector<NodeId> s_only = {0};
  EXPECT_FALSE(code->is_recovery_set(0, s_only));
  EXPECT_FALSE(code->is_recovery_set(2, s_only));
}

TEST(CodesTest, DecodeToleratesSupersetAndExtraSymbols) {
  const auto code = make_paper_5_3_gf256(8);
  Rng rng(31);
  const auto values = random_values(rng, 3, 8);
  std::vector<Symbol> symbols;
  std::vector<NodeId> all = {0, 1, 2, 3, 4};
  for (NodeId s : all) symbols.push_back(code->encode(s, values));
  for (ObjectId k = 0; k < 3; ++k) {
    EXPECT_EQ(code->decode(k, all, symbols), values[k]);
  }
}

TEST(CodesTest, LrcLocalityAndRecovery) {
  // 6 objects, local groups of 3 (2 local parities), 2 global parities:
  // 10 servers total.
  const auto code = make_lrc(6, 3, 2, 8);
  EXPECT_EQ(code->num_servers(), 10u);
  EXPECT_EQ(code->num_objects(), 6u);
  // Reads are local at every data server.
  for (ObjectId x = 0; x < 6; ++x) EXPECT_TRUE(code->is_local(x, x));
  // A failed data server recovers from its small local group: object 1 is
  // recoverable from {0, 2, 6} (the other group members + local parity).
  const std::vector<NodeId> local_repair = {0, 2, 6};
  EXPECT_TRUE(code->is_recovery_set(1, local_repair));
  // The local parity of group 2 does not help group 1.
  const std::vector<NodeId> wrong_group = {0, 2, 7};
  EXPECT_FALSE(code->is_recovery_set(1, wrong_group));
  // Global parities cover multi-failure cases.
  const std::vector<NodeId> global_path = {0, 2, 3, 4, 5, 8, 9};
  EXPECT_TRUE(code->is_recovery_set(1, global_path));

  // Round trip through a local-repair decode.
  Rng rng(71);
  const auto values = random_values(rng, 6, 8);
  std::vector<Symbol> symbols;
  for (NodeId s : local_repair) symbols.push_back(code->encode(s, values));
  EXPECT_EQ(code->decode(1, local_repair, symbols), values[1]);
}

TEST(CodesTest, LrcSupportSets) {
  const auto code = make_lrc(4, 2, 1, 8);  // 4 data + 2 local + 1 global
  EXPECT_EQ(code->num_servers(), 7u);
  EXPECT_EQ(code->support(4), (std::vector<ObjectId>{0, 1}));  // local p1
  EXPECT_EQ(code->support(5), (std::vector<ObjectId>{2, 3}));  // local p2
  EXPECT_EQ(code->support(6).size(), 4u);                      // global
}

TEST(CodesTest, RandomCodesAlwaysRecoverable) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const auto code = make_random_code(seed, 5, 3, 8, 0.4);
    for (ObjectId k = 0; k < 3; ++k) {
      EXPECT_FALSE(code->recovery_sets(k).empty());
    }
    // Round trip through the full server set.
    Rng rng(seed);
    const auto values = random_values(rng, 3, 8);
    std::vector<NodeId> all = {0, 1, 2, 3, 4};
    std::vector<Symbol> symbols;
    for (NodeId s : all) symbols.push_back(code->encode(s, values));
    for (ObjectId k = 0; k < 3; ++k) {
      EXPECT_EQ(code->decode(k, all, symbols), values[k]);
    }
  }
}

TEST(CodesTest, RecoverySetsAreMinimalAndSorted) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto code = make_random_code(seed, 6, 3, 8, 0.5);
    for (ObjectId k = 0; k < 3; ++k) {
      const auto& sets = code->recovery_sets(k);
      for (const auto& s : sets) {
        EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
        // No set contains another.
        for (const auto& t : sets) {
          if (&s == &t) continue;
          EXPECT_FALSE(std::includes(s.begin(), s.end(), t.begin(), t.end()))
              << "recovery set contains another (not minimal)";
        }
      }
    }
  }
}

TEST(CodesTest, MdsRejectsNonMdsCode) {
  // The paper's cross-object 6-DC code is explicitly not MDS (footnote 6).
  EXPECT_FALSE(is_mds(*make_six_dc_cross_object(8)));
  EXPECT_FALSE(is_mds(*make_paper_5_3_gf256(8)));
}

TEST(CodesTest, DescribeMentionsParameters) {
  const auto code = make_systematic_rs(6, 4, 128);
  const auto desc = code->describe();
  EXPECT_NE(desc.find("N=6"), std::string::npos);
  EXPECT_NE(desc.find("K=4"), std::string::npos);
}

// Multi-row servers: one server storing two different parity combinations.
TEST(LinearCodeTest, MultiRowServer) {
  using M = linalg::Matrix<GF>;
  std::vector<M> per_server;
  per_server.push_back(M::from_rows({{1, 0}, {0, 1}}));  // stores x1 and x2
  per_server.push_back(M::from_rows({{1, 1}}));          // parity
  per_server.push_back(M::from_rows({{1, 2}}));          // parity
  const auto code = std::make_shared<LinearCodeT<GF>>(std::move(per_server),
                                                      8, "multi-row");
  EXPECT_EQ(code->symbol_bytes(0), 16u);
  EXPECT_EQ(code->symbol_bytes(1), 8u);
  EXPECT_TRUE(code->is_local(0, 0));
  EXPECT_TRUE(code->is_local(0, 1));
  Rng rng(37);
  const auto values = random_values(rng, 2, 8);
  std::vector<NodeId> parities = {1, 2};
  std::vector<Symbol> symbols = {code->encode(1, values),
                                 code->encode(2, values)};
  EXPECT_EQ(code->decode(0, parities, symbols), values[0]);
  EXPECT_EQ(code->decode(1, parities, symbols), values[1]);
}

TEST(LinearCodeTest, ZeroRowServerStoresNothing) {
  using M = linalg::Matrix<GF>;
  std::vector<M> per_server;
  per_server.push_back(M::from_rows({{1, 0}, {0, 1}}));
  per_server.push_back(M(0, 2));  // stores nothing
  const auto code = std::make_shared<LinearCodeT<GF>>(std::move(per_server),
                                                      8, "with-empty");
  EXPECT_EQ(code->symbol_bytes(1), 0u);
  EXPECT_TRUE(code->support(1).empty());
}

}  // namespace
}  // namespace causalec::erasure
