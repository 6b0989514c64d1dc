// Simulation substrate: cost algebra, disk model, IoContext, net model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "sim/cost.h"
#include "sim/disk_model.h"
#include "sim/io_context.h"
#include "sim/net_model.h"

namespace propeller::sim {
namespace {

TEST(CostTest, Algebra) {
  Cost a(1.5), b(0.5);
  EXPECT_DOUBLE_EQ((a + b).seconds(), 2.0);
  EXPECT_DOUBLE_EQ((a * 3).seconds(), 4.5);
  a += b;
  EXPECT_DOUBLE_EQ(a.seconds(), 2.0);
  EXPECT_LT(b, a);
  EXPECT_DOUBLE_EQ(Cost(0.001).millis(), 1.0);
  EXPECT_DOUBLE_EQ(Cost(0.001).micros(), 1000.0);
}

TEST(CostTest, ParallelMaxTakesSlowestBranch) {
  EXPECT_DOUBLE_EQ(Cost::ParallelMax({Cost(1), Cost(5), Cost(3)}).seconds(), 5.0);
  EXPECT_DOUBLE_EQ(Cost::ParallelMax({}).seconds(), 0.0);
}

TEST(CostClockTest, Accumulates) {
  CostClock clock;
  clock.Advance(Cost(1));
  clock.Advance(Cost(2));
  EXPECT_DOUBLE_EQ(clock.total().seconds(), 3.0);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.total().seconds(), 0.0);
}

TEST(DiskModelTest, RandomAccessIncludesSeekAndRotation) {
  DiskModel disk;  // 8.5ms seek + 4.17ms rotation + 4KB transfer
  double ms = disk.RandomPageAccess().millis();
  EXPECT_GT(ms, 12.0);
  EXPECT_LT(ms, 14.0);
}

TEST(DiskModelTest, SequentialAmortizesSeek) {
  DiskModel disk;
  // 1000 sequential pages: one seek + bandwidth-bound transfer.
  double s = disk.SequentialPages(1000).seconds();
  EXPECT_LT(s, 0.06);
  EXPECT_GT(s, 0.04);  // ~4MB at 100MB/s + 12.7ms
  EXPECT_DOUBLE_EQ(disk.SequentialPages(0).seconds(), 0.0);
}

TEST(DiskModelTest, AppendHasNoSeek) {
  DiskModel disk;
  EXPECT_LT(disk.AppendBytes(4096).seconds(), 0.0001);
}

// A store whose first `pages` pages are on disk but not cached: written
// (allocated), then dropped from the cache as by a reboot.
PageStore WrittenStore(IoContext& io, uint64_t pages) {
  PageStore store = io.CreateStore();
  for (uint64_t p = 0; p < pages; ++p) store.Write(p);
  io.DropCaches();
  return store;
}

TEST(IoContextTest, CacheHitsAreCheapMissesAreNot) {
  IoContext io(IoParams{.disk = {}, .cache_pages = 16, .cache_hit_us = 2});
  PageStore store = WrittenStore(io, 2);
  double miss = store.Read(1).seconds();
  double hit = store.Read(1).seconds();
  EXPECT_GT(miss, 0.01);
  EXPECT_LT(hit, 1e-5);
  EXPECT_EQ(io.CacheStats().hits, 1u);
  EXPECT_EQ(io.CacheStats().misses, 1u);
}

TEST(IoContextTest, StoresAreIsolatedInCache) {
  IoContext io;
  PageStore a = io.CreateStore();
  PageStore b = io.CreateStore();
  a.Write(1);
  b.Write(1);
  io.DropCaches();
  a.Read(1);
  // Same page number, different store: still a miss.
  EXPECT_GT(b.Read(1).seconds(), 0.01);
}

TEST(IoContextTest, SequentialLoadWarmsCache) {
  IoContext io;
  PageStore store = io.CreateStore();
  double cold = store.SequentialLoad(100).seconds();
  double warm = store.SequentialLoad(100).seconds();
  EXPECT_GT(cold, warm * 10);
}

TEST(IoContextTest, InvalidateStoreForcesMisses) {
  IoContext io;
  PageStore store = io.CreateStore();
  store.Write(7);
  store.Invalidate();
  EXPECT_GT(store.Read(7).seconds(), 0.01);
}

TEST(IoContextTest, DropCachesClearsEverything) {
  IoContext io;
  PageStore store = io.CreateStore();
  store.Read(1);
  store.Read(2);
  EXPECT_EQ(io.CachedPages(), 2u);
  io.DropCaches();
  EXPECT_EQ(io.CachedPages(), 0u);
}

TEST(IoContextTest, CapacityZeroDisablesCaching) {
  IoContext io(IoParams{.disk = {}, .cache_pages = 0, .cache_hit_us = 2});
  PageStore store = io.CreateStore();
  store.Read(1);
  EXPECT_GT(store.Read(1).seconds(), 0.01) << "no cache -> always miss";
}

// --- Write-back allocation: pages no write has created cost no disk I/O ---

TEST(AllocationTest, AllocationCostsOneHitAndNoDiskAccess) {
  IoContext io(IoParams{.disk = {}, .cache_pages = 16, .cache_hit_us = 2});
  PageStore store = io.CreateStore();
  EXPECT_DOUBLE_EQ(store.Write(5).seconds(), 2e-6);
  EXPECT_TRUE(io.IsCached(PageId{store.id(), 5}));
  // Reading a page past the extent allocates it too.
  EXPECT_DOUBLE_EQ(store.Read(9).seconds(), 2e-6);
  EXPECT_EQ(io.CacheStats().allocations, 2u);
  EXPECT_EQ(io.CacheStats().misses, 0u);
}

TEST(AllocationTest, DroppedAllocatedPageCostsARandomAccess) {
  IoContext io;
  PageStore store = io.CreateStore();
  store.Write(3);
  io.DropCaches();
  EXPECT_EQ(store.Read(3).seconds(), io.disk().RandomPageAccess().seconds());
  // Extending the extent to page 3 put pages 0-2 on disk as well.
  EXPECT_EQ(store.Read(1).seconds(), io.disk().RandomPageAccess().seconds());
  EXPECT_EQ(io.CacheStats().misses, 2u);
}

TEST(AllocationTest, RewriteSetsTheExtentToTheNewImage) {
  IoContext io(IoParams{.disk = {}, .cache_pages = 64, .cache_hit_us = 2});
  PageStore store = WrittenStore(io, 10);
  // Same charge as Invalidate + SequentialLoad of the pass.
  EXPECT_EQ(store.Rewrite(14, 4).seconds(),
            io.disk().SequentialPages(14).seconds());
  io.DropCaches();
  const auto misses = io.CacheStats().misses;
  // Page 6 was on disk before the rewrite but lies past the new image.
  EXPECT_DOUBLE_EQ(store.Read(6).seconds(), 2e-6);
  EXPECT_EQ(store.Read(2).seconds(), io.disk().RandomPageAccess().seconds());
  EXPECT_EQ(io.CacheStats().misses, misses + 1);
}

TEST(AllocationTest, AllocationsAreNotMisses) {
  IoContext io;
  PageStore store = io.CreateStore();
  store.ReadPages({0, 1, 2});
  store.Read(1);
  const PageCacheStats stats = io.CacheStats();
  EXPECT_EQ(stats.allocations, 3u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 1.0);
}

TEST(AllocationTest, DeclaredPagesAreOnDiskFromTheStart) {
  IoContext io;
  PageStore store = io.CreateStore(/*existing_pages=*/8);
  EXPECT_EQ(store.Read(7).seconds(), io.disk().RandomPageAccess().seconds());
  EXPECT_EQ(io.CacheStats().misses, 1u);
}

TEST(PinScopeTest, EachPageIsChargedOncePerScope) {
  IoContext io(IoParams{.disk = {}, .cache_pages = 64, .cache_hit_us = 2});
  PageStore store = WrittenStore(io, 4);
  PinScope pins;
  EXPECT_EQ(store.Read(2, &pins).seconds(),
            io.disk().RandomPageAccess().seconds());
  EXPECT_EQ(store.Write(2, &pins).seconds(), 0.0);
  EXPECT_DOUBLE_EQ(store.Write(6, &pins).seconds(), 2e-6);  // allocated
  EXPECT_EQ(store.Read(6, &pins).seconds(), 0.0);
  // A load of the image charges only the pages not pinned yet.
  EXPECT_EQ(store.SequentialLoad(4, &pins).seconds(),
            io.disk().SequentialPages(3).seconds());
  EXPECT_EQ(store.SequentialLoad(4, &pins).seconds(), 0.0);
  EXPECT_EQ(pins.pages(), 5u);
  EXPECT_EQ(pins.allocated(), 1u);
  // Outside the scope the pages are charged again, as cache hits.
  EXPECT_DOUBLE_EQ(store.Read(2).seconds(), 2e-6);
}

TEST(NetModelTest, LatencyPlusBandwidth) {
  NetModel net(NetParams{.latency_us = 100, .bandwidth_mb_per_s = 100});
  // 1 MB at 100 MB/s = 10ms + 0.1ms latency.
  EXPECT_NEAR(net.Send(1'000'000).millis(), 10.1, 0.01);
  // Round trip includes both directions.
  EXPECT_NEAR(net.RoundTrip(1'000'000, 0).millis(), 10.2, 0.01);
}

TEST(PageCacheStatsTest, HitRate) {
  PageCacheStats stats;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.0);
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.75);
}

// --- IoContext::ReadPages: the batched, page-sorted read ---

TEST(ReadPagesTest, LoneColdPageCostsOneRandomAccess) {
  IoContext io;
  PageStore store = WrittenStore(io, 43);
  EXPECT_EQ(store.ReadPages({42}).seconds(),
            io.disk().RandomPageAccess().seconds());
  EXPECT_TRUE(io.IsCached(PageId{store.id(), 42}));
  EXPECT_EQ(io.CacheStats().misses, 1u);
}

TEST(ReadPagesTest, AdjacentColdPagesCostOneSweepOfTheirSpan) {
  IoContext io;
  PageStore store = WrittenStore(io, 111);
  EXPECT_EQ(store.ReadPages({3, 4, 5, 6}).seconds(),
            io.disk().SequentialPages(4).seconds());
  // A short gap is read through: one sweep over the whole span, but only
  // the requested pages enter the cache.
  EXPECT_EQ(store.ReadPages({100, 110}).seconds(),
            io.disk().SequentialPages(11).seconds());
  EXPECT_TRUE(io.IsCached(PageId{store.id(), 110}));
  EXPECT_FALSE(io.IsCached(PageId{store.id(), 105}));
  EXPECT_EQ(io.CachedPages(), 6u);
}

TEST(ReadPagesTest, PagesFartherApartThanSeekOverTransferAreSeparateSweeps) {
  IoContext io;
  PageStore store = WrittenStore(io, 9003);
  const DiskModel& disk = io.disk();
  // Defaults: a 12.67 ms reposition buys 309 pages of 40.96 us transfer.
  EXPECT_TRUE(disk.SweepAbsorbsGap(309));
  EXPECT_FALSE(disk.SweepAbsorbsGap(310));
  EXPECT_EQ(store.ReadPages({0, 310}).seconds(),
            disk.SequentialPages(311).seconds());
  EXPECT_DOUBLE_EQ(store.ReadPages({1000, 1311}).seconds(),
                   2 * disk.RandomPageAccess().seconds());
  EXPECT_DOUBLE_EQ(
      store.ReadPages({2000, 2001, 5000, 9000, 9002}).seconds(),
      (disk.SequentialPages(2) + disk.RandomPageAccess() +
       disk.SequentialPages(3))
          .seconds());
}

TEST(ReadPagesTest, FullyCachedBatchCostsOneHitPerPage) {
  IoContext io(IoParams{.disk = {}, .cache_pages = 64, .cache_hit_us = 2});
  PageStore store = io.CreateStore();
  const std::vector<uint64_t> pages = {1, 5, 9, 400, 4000};
  store.ReadPages(pages);
  const auto misses = io.CacheStats().misses;
  EXPECT_DOUBLE_EQ(store.ReadPages(pages).seconds(), 5 * 2e-6);
  EXPECT_EQ(io.CacheStats().misses, misses);
  EXPECT_EQ(io.CacheStats().hits, 5u);
}

// Property: from identical caches, one batched read never costs more than
// touching the same pages one by one (in the same ascending order), and
// leaves exactly the same pages resident.
TEST(ReadPagesTest, NeverDearerThanPerPageTouchesAndSameResidency) {
  constexpr uint64_t kSpace = 3000;
  const IoParams params{.disk = {}, .cache_pages = 96, .cache_hit_us = 2};
  IoContext batched(params);
  IoContext single(params);
  PageStore a = batched.CreateStore();
  PageStore b = single.CreateStore();
  ASSERT_EQ(a.id(), b.id());
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    std::vector<uint64_t> pages;
    const uint64_t n = 1 + rng.Uniform(40);
    // Alternate dense and sparse draws so both short gaps and long seeks
    // (and a cache that keeps some pages warm) all occur.
    const uint64_t space = round % 2 == 0 ? 200 : kSpace;
    for (uint64_t i = 0; i < n; ++i) pages.push_back(rng.Uniform(space));
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

    Cost one_by_one;
    for (uint64_t p : pages) one_by_one += b.Read(p);
    const Cost batch = a.ReadPages(pages);
    ASSERT_LE(batch.seconds(), one_by_one.seconds() + 1e-12)
        << "round " << round;
    ASSERT_EQ(batched.CachedPages(), single.CachedPages()) << "round " << round;
    for (uint64_t p = 0; p < kSpace; ++p) {
      ASSERT_EQ(batched.IsCached(PageId{a.id(), p}),
                single.IsCached(PageId{b.id(), p}))
          << "round " << round << " page " << p;
    }
  }
  EXPECT_EQ(batched.CacheStats().hits, single.CacheStats().hits);
  EXPECT_EQ(batched.CacheStats().misses, single.CacheStats().misses);
}

}  // namespace
}  // namespace propeller::sim
