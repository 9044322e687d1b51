// Stateful-service building blocks (ctest label: state), pure units: the
// deterministic keyed-accumulator store, incremental checkpoint chains
// (base + dirty-key deltas, gap/divergence detection), and the message
// log's truncate/replay contract. No simulator — these are the pieces the
// recovery pipeline composes, tested in isolation.
#include "state/app_state.h"

#include <gtest/gtest.h>

#include "state/checkpoint.h"
#include "state/message_log.h"

namespace mead::state {
namespace {

TEST(AppStateTest, DigestIsPureFunctionOfAppliedOps) {
  AppState a(16);
  AppState b(16);
  for (int i = 0; i < 100; ++i) (void)a.apply_next();
  for (int i = 0; i < 100; ++i) (void)b.apply_next();
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.applied(), 100u);
  EXPECT_EQ(a.digest(), AppState::expected_digest(100, 16));
  // A different op count or key count yields a different digest.
  EXPECT_NE(a.digest(), AppState::expected_digest(99, 16));
  EXPECT_NE(a.digest(), AppState::expected_digest(100, 17));
}

TEST(AppStateTest, EmptyStateDigest) {
  AppState s(8);
  EXPECT_EQ(s.applied(), 0u);
  EXPECT_EQ(s.digest(), AppState::expected_digest(0, 8));
}

TEST(AppStateTest, DirtyTrackingAccumulatesAndClears) {
  AppState s(4);
  for (int i = 0; i < 6; ++i) (void)s.apply_next();
  auto dirty = s.take_dirty();
  // 6 ops over 4 keys touch at most 4 distinct slots, at least 2.
  EXPECT_GE(dirty.size(), 2u);
  EXPECT_LE(dirty.size(), 4u);
  EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end()));
  EXPECT_TRUE(s.take_dirty().empty());  // cleared by the take
  (void)s.apply_next();
  EXPECT_EQ(s.take_dirty().size(), 1u);
}

TEST(AppStateTest, DirtySetIsExactSortedAndClearable) {
  // Ops 3, 4, 5 over 4 keys dirty keys 3, 0, 1 in that order: the delta
  // source sorts them; a base clears them without a take.
  AppState s(4);
  (void)s.apply_next();
  (void)s.apply_next();
  EXPECT_EQ(s.take_dirty(), (std::vector<std::uint32_t>{1, 2}));
  for (int i = 0; i < 3; ++i) (void)s.apply_next();
  (void)s.apply_next();  // op 6: key 2
  (void)s.apply_next();  // op 7: key 3 again, listed once
  EXPECT_EQ(s.take_dirty(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  (void)s.apply_next();
  s.clear_dirty();
  EXPECT_TRUE(s.take_dirty().empty());
}

TEST(AppStateTest, InstallAndProgressRebuildExactState) {
  AppState primary(8);
  for (int i = 0; i < 40; ++i) (void)primary.apply_next();

  AppState mirror(8);
  for (std::uint32_t k = 0; k < 8; ++k) mirror.install(k, primary.value(k));
  mirror.set_progress(primary.applied(), primary.digest());
  EXPECT_EQ(mirror.digest(), primary.digest());

  // Both continue identically from the shared point.
  EXPECT_EQ(primary.apply_next(), mirror.apply_next());
  EXPECT_EQ(mirror.digest(), primary.digest());
}

TEST(CheckpointStoreTest, BaseThenDeltasThenRebase) {
  AppState s(8);
  CheckpointStore store(/*rebase_every=*/2);
  for (int i = 0; i < 5; ++i) (void)s.apply_next();
  const Checkpoint base = store.take(s);
  EXPECT_TRUE(base.is_base);
  EXPECT_EQ(base.epoch, 1u);
  EXPECT_EQ(base.entries.size(), 8u);  // full snapshot
  EXPECT_EQ(base.applied, 5u);

  (void)s.apply_next();
  const Checkpoint d1 = store.take(s);
  EXPECT_FALSE(d1.is_base);
  EXPECT_EQ(d1.base_epoch, 1u);
  EXPECT_EQ(d1.entries.size(), 1u);  // one op dirtied one key
  EXPECT_EQ(d1.prev_digest, base.digest);

  (void)s.apply_next();
  const Checkpoint d2 = store.take(s);
  EXPECT_FALSE(d2.is_base);
  EXPECT_EQ(store.chain().size(), 3u);

  // Two deltas chain to the base, so the next one completes the cycle:
  // it ships as a delta (where a fresh base used to go), and the store
  // compacts its chain into one base at that delta's epoch.
  (void)s.apply_next();
  const Checkpoint d3 = store.take(s);
  EXPECT_FALSE(d3.is_base);
  EXPECT_EQ(d3.epoch, 4u);
  ASSERT_EQ(store.chain().size(), 1u);  // nothing older is served
  const Checkpoint& compacted = store.chain().front();
  EXPECT_TRUE(compacted.is_base);
  EXPECT_EQ(compacted.epoch, d3.epoch);
  EXPECT_EQ(compacted.base_epoch, d3.epoch);
  EXPECT_EQ(compacted.applied, d3.applied);
  EXPECT_EQ(compacted.digest, d3.digest);
  ASSERT_EQ(compacted.entries.size(), 8u);
  for (std::uint32_t k = 0; k < 8; ++k) {
    EXPECT_EQ(compacted.entries[k], std::make_pair(k, s.value(k)));
  }

  // Later takes stay deltas, chained to the compacted base.
  (void)s.apply_next();
  const Checkpoint d4 = store.take(s);
  EXPECT_FALSE(d4.is_base);
  EXPECT_EQ(d4.base_epoch, d3.epoch);
  EXPECT_EQ(d4.prev_digest, d3.digest);
}

TEST(CheckpointStoreTest, RvalueApplyMovesOnlyWhenApplied) {
  AppState primary(8);
  CheckpointStore pstore(/*rebase_every=*/4);
  (void)primary.apply_next();
  Checkpoint base = pstore.take(primary);
  (void)primary.apply_next();
  Checkpoint d1 = pstore.take(primary);
  (void)primary.apply_next();
  Checkpoint d2 = pstore.take(primary);

  AppState mirror(8);
  CheckpointStore mstore;
  ASSERT_EQ(mstore.apply(std::move(base), mirror),
            CheckpointStore::Apply::kApplied);
  // A gapped epoch is refused and left intact for the caller to buffer.
  const Checkpoint d2_copy = d2;
  EXPECT_EQ(mstore.apply(std::move(d2), mirror), CheckpointStore::Apply::kGap);
  EXPECT_EQ(d2, d2_copy);
  EXPECT_EQ(mstore.apply(std::move(d1), mirror),
            CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mstore.apply(std::move(d2), mirror),
            CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mstore.chain().back(), d2_copy);
  EXPECT_EQ(mirror.digest(), primary.digest());
}

TEST(CheckpointStoreTest, MirrorFollowsChainExactly) {
  AppState primary(16);
  CheckpointStore pstore(/*rebase_every=*/4);
  AppState mirror(16);
  CheckpointStore mstore(4);

  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) (void)primary.apply_next();
    const Checkpoint& c = pstore.take(primary);
    EXPECT_EQ(mstore.apply(c, mirror), CheckpointStore::Apply::kApplied)
        << "round " << round;
    EXPECT_EQ(mirror.digest(), primary.digest()) << "round " << round;
    EXPECT_EQ(mirror.applied(), primary.applied()) << "round " << round;
  }
}

TEST(CheckpointStoreTest, DetectsGapStaleAndDivergence) {
  AppState primary(8);
  CheckpointStore pstore(/*rebase_every=*/100);  // deltas only after base
  AppState mirror(8);
  CheckpointStore mstore(100);

  (void)primary.apply_next();
  const Checkpoint base = pstore.take(primary);
  EXPECT_EQ(mstore.apply(base, mirror), CheckpointStore::Apply::kApplied);

  (void)primary.apply_next();
  const Checkpoint d1 = pstore.take(primary);
  (void)primary.apply_next();
  const Checkpoint d2 = pstore.take(primary);

  // Skipping d1 is a chain gap; the mirror must refuse d2.
  EXPECT_EQ(mstore.apply(d2, mirror), CheckpointStore::Apply::kGap);
  // Replaying the base is stale.
  EXPECT_EQ(mstore.apply(base, mirror), CheckpointStore::Apply::kStale);
  // The missed delta still applies, then its successor.
  EXPECT_EQ(mstore.apply(d1, mirror), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mstore.apply(d2, mirror), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mirror.digest(), primary.digest());

  // A checkpoint at the right chain position but chaining from a digest
  // we never reached (a diverged producer) must be rejected.
  (void)primary.apply_next();
  Checkpoint bad = pstore.take(primary);
  bad.prev_digest ^= 1;
  EXPECT_EQ(mstore.apply(bad, mirror),
            CheckpointStore::Apply::kDigestMismatch);
}

TEST(MessageLogTest, TruncateOnCheckpointAndFullFlag) {
  MessageLog log(4);
  AppState s(8);
  for (int i = 0; i < 3; ++i) log.append(s.apply_next());
  EXPECT_EQ(log.size(), 3u);
  EXPECT_FALSE(log.full());
  log.append(s.apply_next());
  EXPECT_TRUE(log.full());
  // Checkpoint at applied=2: entries 1,2 drop; 3,4 remain.
  log.truncate_through(2);
  EXPECT_EQ(log.entries(), (std::vector<std::uint64_t>{3, 4}));
  log.truncate_through(100);
  EXPECT_TRUE(log.empty());
}

TEST(MessageLogTest, ReplayReachesPrimaryDigestOrRefuses) {
  AppState primary(8);
  CheckpointStore pstore;
  for (int i = 0; i < 5; ++i) (void)primary.apply_next();
  const Checkpoint base = pstore.take(primary);

  MessageLog log(16);
  for (int i = 0; i < 4; ++i) log.append(primary.apply_next());

  // Restore: base, then the logged suffix.
  AppState r(8);
  CheckpointStore rstore;
  ASSERT_EQ(rstore.apply(base, r), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(MessageLog::replay(log.entries(), primary.digest(), r), 4);
  EXPECT_EQ(r.digest(), primary.digest());
  EXPECT_EQ(r.applied(), primary.applied());

  // A hole in the sequence is refused and reported.
  AppState r2(8);
  CheckpointStore r2store;
  ASSERT_EQ(r2store.apply(base, r2), CheckpointStore::Apply::kApplied);
  std::vector<std::uint64_t> holed = log.entries();
  holed.erase(holed.begin() + 1);
  EXPECT_EQ(MessageLog::replay(holed, primary.digest(), r2), -1);
}

TEST(CheckpointStoreTest, DeltaChainedToTheWrongBaseEpochIsRejected) {
  // Two primaries at different rebase points produce deltas with the
  // same epoch number but different base_epoch lineage: a mirror
  // following primary A must refuse a delta whose base_epoch names a
  // base it never installed, not silently fold foreign entries.
  AppState primary(8);
  CheckpointStore pstore(/*rebase_every=*/100);
  (void)primary.apply_next();
  const Checkpoint base = pstore.take(primary);  // epoch 1, the mirror's base
  (void)primary.apply_next();
  const Checkpoint d1 = pstore.take(primary);    // epoch 2 chained to base 1

  AppState mirror(8);
  CheckpointStore mstore(100);
  ASSERT_EQ(mstore.apply(base, mirror), CheckpointStore::Apply::kApplied);

  Checkpoint wrong_base = d1;
  wrong_base.base_epoch = 7;  // claims a base the mirror never saw
  EXPECT_EQ(mstore.apply(wrong_base, mirror), CheckpointStore::Apply::kGap);
  // The mirror's installed prefix is untouched by the refusal...
  EXPECT_EQ(mirror.applied(), base.applied);
  EXPECT_EQ(mirror.digest(), base.digest);
  // ...and the genuine delta still applies afterwards.
  EXPECT_EQ(mstore.apply(d1, mirror), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mirror.digest(), primary.digest());
}

TEST(CheckpointStoreTest, DigestMismatchPreservesTheInstalledPrefix) {
  // A restore that hits a diverged checkpoint mid-chain must refuse it
  // and keep the consistent prefix: state, progress watermark, and the
  // local chain all stay exactly where the last good epoch left them
  // (the watchdog may then announce with the prefix).
  AppState primary(8);
  CheckpointStore pstore(/*rebase_every=*/100);
  (void)primary.apply_next();
  const Checkpoint base = pstore.take(primary);
  (void)primary.apply_next();
  const Checkpoint d1 = pstore.take(primary);
  (void)primary.apply_next();
  const Checkpoint d2 = pstore.take(primary);

  AppState mirror(8);
  CheckpointStore mstore(100);
  ASSERT_EQ(mstore.apply(base, mirror), CheckpointStore::Apply::kApplied);
  ASSERT_EQ(mstore.apply(d1, mirror), CheckpointStore::Apply::kApplied);
  const std::uint64_t prefix_digest = mirror.digest();
  const std::uint64_t prefix_applied = mirror.applied();
  const std::uint64_t prefix_epoch = mstore.last_epoch();

  Checkpoint diverged = d2;
  diverged.prev_digest ^= 0x5a5a;  // right position, wrong lineage
  EXPECT_EQ(mstore.apply(diverged, mirror),
            CheckpointStore::Apply::kDigestMismatch);
  EXPECT_EQ(mirror.digest(), prefix_digest);
  EXPECT_EQ(mirror.applied(), prefix_applied);
  EXPECT_EQ(mstore.last_epoch(), prefix_epoch);
  // The prefix is still extensible by the authentic successor.
  EXPECT_EQ(mstore.apply(d2, mirror), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mirror.digest(), primary.digest());
}

TEST(MessageLogTest, WraparoundReplayYieldsOnlyTheRetainedSuffix) {
  // The primary loops through many checkpoint/truncate cycles — the log
  // "wraps" repeatedly. After the last truncation only the suffix since
  // that checkpoint is retained: replay from the matching checkpoint
  // succeeds, replay from anything older reports the hole.
  AppState primary(8);
  CheckpointStore pstore(/*rebase_every=*/100);
  MessageLog log(4);

  Checkpoint mid;  // the checkpoint the retained suffix starts after
  for (int cycle = 0; cycle < 3; ++cycle) {
    while (!log.full()) log.append(primary.apply_next());
    mid = pstore.take(primary);
    log.truncate_through(mid.applied);
    ASSERT_TRUE(log.empty()) << "cycle " << cycle;
  }
  for (int i = 0; i < 3; ++i) log.append(primary.apply_next());

  // Only the post-checkpoint suffix is retained.
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.entries().front(), mid.applied + 1);

  // A mirror restored through the retained chain (base + every delta up
  // to the last checkpoint) replays the suffix exactly.
  AppState caught_up(8);
  CheckpointStore cstore(100);
  for (const Checkpoint& c : pstore.chain()) {
    ASSERT_EQ(cstore.apply(c, caught_up), CheckpointStore::Apply::kApplied)
        << "epoch " << c.epoch;
  }
  ASSERT_EQ(caught_up.applied(), mid.applied);
  EXPECT_EQ(MessageLog::replay(log.entries(), primary.digest(), caught_up), 3);
  EXPECT_EQ(caught_up.digest(), primary.digest());

  // A mirror stuck one whole cycle behind sees a sequence hole — the
  // truncated middle is gone for good, not silently skipped.
  AppState stale(8);
  EXPECT_EQ(MessageLog::replay(log.entries(), primary.digest(), stale), -1);
  EXPECT_EQ(stale.applied(), 0u);
}

TEST(CheckpointStoreTest, PrimaryAndMirrorCompactInLockstep) {
  // Only the first checkpoint is a base; after it the primary ships
  // deltas alone, and both sides fold their own chains into a base at
  // the same epochs, so the chains stay identical across cycles.
  constexpr std::uint32_t kRebase = 4;  // a cycle is base + 5 deltas
  AppState primary(16);
  CheckpointStore pstore(kRebase);
  AppState mirror(16);
  CheckpointStore mstore(kRebase);

  std::size_t bases = 0;
  std::size_t compactions = 0;
  for (std::uint32_t take = 1; take <= 3 * (kRebase + 1) + 2; ++take) {
    for (int i = 0; i < 3; ++i) (void)primary.apply_next();
    const Checkpoint c = pstore.take(primary);
    if (c.is_base) ++bases;
    ASSERT_EQ(mstore.apply(c, mirror), CheckpointStore::Apply::kApplied)
        << "take " << take;
    if (pstore.chain().size() == 1 && take > 1) ++compactions;
    EXPECT_EQ(mstore.last_epoch(), pstore.last_epoch()) << "take " << take;
    EXPECT_EQ(mstore.last_digest(), pstore.last_digest()) << "take " << take;
    EXPECT_EQ(mstore.chain(), pstore.chain()) << "take " << take;
    EXPECT_EQ(mirror.digest(), primary.digest()) << "take " << take;
  }
  EXPECT_EQ(bases, 1u);
  EXPECT_EQ(compactions, 3u);
  EXPECT_EQ(pstore.chain().front().epoch, 3 * (kRebase + 1) + 1);
  for (std::uint32_t k = 0; k < 16; ++k) {
    EXPECT_EQ(mstore.chain().front().entries[k].second,
              pstore.chain().front().entries[k].second);
  }
}

TEST(CheckpointStoreTest, CompactedBaseRestoresAFreshStore) {
  AppState primary(32);
  CheckpointStore pstore(/*rebase_every=*/3);
  for (int take = 0; take < 9; ++take) {  // compacts at takes 5 and 9
    for (int i = 0; i < 5; ++i) (void)primary.apply_next();
    (void)pstore.take(primary);
  }
  ASSERT_EQ(pstore.chain().size(), 1u);
  const Checkpoint& base = pstore.chain().front();
  ASSERT_TRUE(base.is_base);

  AppState fresh(32);
  CheckpointStore fstore(3);
  ASSERT_EQ(fstore.apply(base, fresh), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(fresh.applied(), 45u);
  EXPECT_EQ(fresh.digest(), AppState::expected_digest(45, 32));
  // The slots, not just the watermark, are the primary's: both continue
  // to the same digest.
  for (int i = 0; i < 40; ++i) {
    (void)primary.apply_next();
    (void)fresh.apply_next();
  }
  EXPECT_EQ(fresh.digest(), AppState::expected_digest(85, 32));
  EXPECT_EQ(fresh.digest(), primary.digest());
}

TEST(CheckpointStoreTest, MirrorAheadOfItsChainCompactsToTheChainDigest) {
  // The fold reads only the chain: a mirror whose own AppState executed
  // extra ops still compacts to the primary's base.
  AppState primary(8);
  CheckpointStore pstore(/*rebase_every=*/2);
  AppState mirror(8);
  CheckpointStore mstore(2);
  (void)primary.apply_next();
  ASSERT_EQ(mstore.apply(pstore.take(primary), mirror),
            CheckpointStore::Apply::kApplied);
  for (int take = 0; take < 3; ++take) {
    for (int i = 0; i < 3; ++i) (void)primary.apply_next();
    const Checkpoint d = pstore.take(primary);
    for (int i = 0; i < 5; ++i) (void)mirror.apply_next();  // runs ahead
    ASSERT_EQ(mstore.apply(d, mirror), CheckpointStore::Apply::kApplied);
  }
  ASSERT_EQ(mstore.chain().size(), 1u);
  EXPECT_EQ(mstore.chain(), pstore.chain());
  EXPECT_EQ(mstore.last_digest(), AppState::expected_digest(10, 8));
  EXPECT_EQ(mstore.applied(), 10u);
}

TEST(CheckpointStoreTest, MissingAfterServesOnlyTheSuffix) {
  // A resync answer: a peer holding an epoch inside the chain gets only
  // the epochs after it (no base); anything else gets the whole chain.
  AppState s(8);
  CheckpointStore store(/*rebase_every=*/4);
  for (int take = 0; take < 9; ++take) {  // base 1, compacted at 6, 7..9
    (void)s.apply_next();
    (void)store.take(s);
  }
  ASSERT_EQ(store.chain().size(), 4u);
  ASSERT_EQ(store.chain().front().epoch, 6u);

  const auto suffix = store.missing_after(7);
  ASSERT_EQ(suffix.size(), 2u);
  EXPECT_EQ(suffix.front().epoch, 8u);
  for (const Checkpoint& c : suffix) EXPECT_FALSE(c.is_base);
  EXPECT_EQ(store.missing_after(6).size(), 3u);  // holds the base itself
  EXPECT_TRUE(store.missing_after(9).empty());   // already current
  // Before the base (or 0, a diverged mirror) and beyond the chain: all.
  EXPECT_EQ(store.missing_after(5).size(), 4u);
  EXPECT_EQ(store.missing_after(0).size(), 4u);
  EXPECT_EQ(store.missing_after(10).size(), 4u);
  EXPECT_TRUE(store.missing_after(5).front().is_base);
}

TEST(CheckpointStoreTest, RefusesMalformedBasesAndOutOfRangeDeltas) {
  // A hostile frame: a base that is not keys 0..n-1 in order, or a delta
  // naming a key the base does not hold, must be refused before any slot
  // is written, and must not reach the fold.
  AppState primary(4);
  CheckpointStore pstore(/*rebase_every=*/1);
  (void)primary.apply_next();
  const Checkpoint base = pstore.take(primary);

  const auto refused = [](Checkpoint c) {
    AppState mirror(4);
    CheckpointStore mstore(1);
    const auto result = mstore.apply(std::move(c), mirror);
    EXPECT_EQ(mirror.applied(), 0u);
    for (std::uint32_t k = 0; k < 4; ++k) EXPECT_EQ(mirror.value(k), 0u);
    EXPECT_FALSE(mstore.has_base());
    return result;
  };
  Checkpoint shuffled = base;
  std::swap(shuffled.entries[0], shuffled.entries[1]);
  EXPECT_EQ(refused(shuffled), CheckpointStore::Apply::kMalformed);
  Checkpoint short_base = base;
  short_base.entries.pop_back();
  EXPECT_EQ(refused(short_base), CheckpointStore::Apply::kMalformed);
  Checkpoint long_base = base;
  long_base.entries.emplace_back(4, 99);
  EXPECT_EQ(refused(long_base), CheckpointStore::Apply::kMalformed);
  Checkpoint far_key = base;
  far_key.entries[3].first = 0xFFFFFFFFu;
  EXPECT_EQ(refused(far_key), CheckpointStore::Apply::kMalformed);

  // A delta whose key lies outside the base: refused, chain untouched.
  AppState mirror(4);
  CheckpointStore mstore(1);
  ASSERT_EQ(mstore.apply(base, mirror), CheckpointStore::Apply::kApplied);
  (void)primary.apply_next();
  Checkpoint delta = pstore.take(primary);
  const Checkpoint good = delta;
  delta.entries.emplace_back(0xFFFFFFFFu, 7);
  EXPECT_EQ(mstore.apply(delta, mirror), CheckpointStore::Apply::kMalformed);
  EXPECT_EQ(mstore.last_epoch(), base.epoch);
  EXPECT_EQ(mirror.digest(), base.digest);
  EXPECT_EQ(mstore.apply(good, mirror), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mstore.chain(), pstore.chain());
}

}  // namespace
}  // namespace mead::state
