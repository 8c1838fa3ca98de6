#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <list>
#include <new>
#include <optional>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chk/snapshot.hpp"
#include "core/system.hpp"
#include "pagetable/gmmu.hpp"
#include "pagetable/page_table.hpp"
#include "pagetable/smmu.hpp"
#include "pagetable/tlb.hpp"

// Counts this binary's operator new calls, so a test can check that a
// code path does not allocate.
namespace {
std::size_t g_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
// Array forms too: a sanitizer runtime's own operator new[] would bypass
// the count. Out of line, so the compiler does not pair new with free().
void* operator new[](std::size_t n) { return operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ghum::pagetable {
namespace {

TEST(PageTable, RejectsNonPowerOfTwoPageSize) {
  EXPECT_THROW(PageTable{0}, std::invalid_argument);
  EXPECT_THROW(PageTable{3000}, std::invalid_argument);
}

TEST(PageTable, MapLookupUnmap) {
  PageTable pt{kSystemPage4K};
  const std::uint64_t va = 0x1234'5678;
  EXPECT_EQ(pt.lookup(va), nullptr);
  pt.map(va, Pte{.node = mem::Node::kGpu, .writable = true});
  const Pte* pte = pt.lookup(va);
  ASSERT_NE(pte, nullptr);
  EXPECT_EQ(pte->node, mem::Node::kGpu);
  // Any address within the same page resolves to the same entry.
  EXPECT_NE(pt.lookup(pt.page_base(va) + kSystemPage4K - 1), nullptr);
  EXPECT_EQ(pt.lookup(pt.page_base(va) + kSystemPage4K), nullptr);
  EXPECT_TRUE(pt.unmap(va));
  EXPECT_FALSE(pt.unmap(va));
}

TEST(PageTable, SetNodeMovesResidency) {
  PageTable pt{kSystemPage64K};
  pt.map(0x100000, Pte{.node = mem::Node::kCpu, .writable = true});
  pt.set_node(0x100000, mem::Node::kGpu);
  EXPECT_EQ(pt.lookup(0x100000)->node, mem::Node::kGpu);
  EXPECT_THROW(pt.set_node(0x900000, mem::Node::kCpu), std::logic_error);
}

TEST(PageTable, ResidentPageCountsByNode) {
  PageTable pt{kSystemPage4K};
  pt.map(0x0000, Pte{.node = mem::Node::kCpu});
  pt.map(0x1000, Pte{.node = mem::Node::kGpu});
  pt.map(0x2000, Pte{.node = mem::Node::kGpu});
  EXPECT_EQ(pt.mapped_pages(), 3u);
  EXPECT_EQ(pt.resident_pages(mem::Node::kCpu), 1u);
  EXPECT_EQ(pt.resident_pages(mem::Node::kGpu), 2u);
}

TEST(PageTable, ResidentRunEndScansContiguousResidency) {
  PageTable pt{kSystemPage4K};
  // Pages 0-2 on CPU, page 3 on GPU, page 4 unmapped, page 5 on CPU.
  pt.map(0x0000, Pte{.node = mem::Node::kCpu});
  pt.map(0x1000, Pte{.node = mem::Node::kCpu});
  pt.map(0x2000, Pte{.node = mem::Node::kCpu});
  pt.map(0x3000, Pte{.node = mem::Node::kGpu});
  pt.map(0x5000, Pte{.node = mem::Node::kCpu});
  const std::uint64_t limit = 0x10000;
  // Run stops at the first page on a different node...
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, limit, 256), 0x3000u);
  // ...starting mid-run still scans forward from the containing page...
  EXPECT_EQ(pt.resident_run_end(0x1800, mem::Node::kCpu, limit, 256), 0x3000u);
  // ...a hole ends the run...
  EXPECT_EQ(pt.resident_run_end(0x3000, mem::Node::kGpu, limit, 256), 0x4000u);
  // ...and the scan is clamped by max_pages and by the limit.
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, limit, 2), 0x2000u);
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, 0x1800, 256), 0x1800u);
  // The first page is never checked (the caller already resolved it), so a
  // scan from the unmapped page 4 still extends across the mapped page 5.
  EXPECT_EQ(pt.resident_run_end(0x4000, mem::Node::kCpu, limit, 256), 0x6000u);
}

TEST(PageTable, AdjacentRunsMergeOnSetNode) {
  PageTable pt{kSystemPage4K};
  // Per-page maps of identical PTEs coalesce into a single extent.
  for (std::uint64_t p = 0; p < 6; ++p) {
    pt.map(p * 0x1000, Pte{.node = mem::Node::kCpu});
  }
  EXPECT_EQ(pt.run_count(), 1u);
  // Moving the middle pages splits the extent in three...
  pt.set_node(0x2000, mem::Node::kGpu);
  pt.set_node(0x3000, mem::Node::kGpu);
  EXPECT_EQ(pt.run_count(), 3u);
  EXPECT_EQ(pt.resident_pages(mem::Node::kGpu), 2u);
  // ...and moving them back re-merges everything into one run.
  pt.set_node(0x2000, mem::Node::kCpu);
  pt.set_node(0x3000, mem::Node::kCpu);
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_EQ(pt.resident_pages(mem::Node::kCpu), 6u);
}

TEST(PageTable, MidRunUnmapSplitsExtent) {
  PageTable pt{kSystemPage4K};
  pt.map_range(0x0000, 10, Pte{.node = mem::Node::kCpu});
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_TRUE(pt.unmap(0x4000));
  EXPECT_EQ(pt.run_count(), 2u);
  EXPECT_EQ(pt.mapped_pages(), 9u);
  EXPECT_EQ(pt.lookup(0x4000), nullptr);
  ASSERT_NE(pt.lookup(0x3000), nullptr);
  ASSERT_NE(pt.lookup(0x5000), nullptr);
  // Remapping the hole with the same attributes heals the single extent.
  pt.map(0x4000, Pte{.node = mem::Node::kCpu});
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_EQ(pt.mapped_pages(), 10u);
}

TEST(PageTable, BulkRangeOpsSpliceWholeExtents) {
  PageTable pt{kSystemPage4K};
  pt.map_range(0x0000, 8, Pte{.node = mem::Node::kCpu});
  // Partial node change reports only the pages that actually moved.
  EXPECT_EQ(pt.set_node_range(0x2000, 4, mem::Node::kGpu), 4u);
  EXPECT_EQ(pt.set_node_range(0x2000, 4, mem::Node::kGpu), 0u);
  EXPECT_EQ(pt.run_count(), 3u);
  // map_range overwrites: re-mapping the whole range back to one PTE value
  // collapses the fragmentation.
  pt.map_range(0x0000, 8, Pte{.node = mem::Node::kCpu});
  EXPECT_EQ(pt.run_count(), 1u);
  // unmap_range over a partially mapped window counts only mapped pages.
  EXPECT_EQ(pt.unmap_range(0x6000, 4), 2u);
  EXPECT_EQ(pt.mapped_pages(), 6u);
}

TEST(PageTable, RunsStraddlingRangeBoundariesAreClipped) {
  PageTable pt{kSystemPage4K};
  pt.map_range(0x0000, 12, Pte{.node = mem::Node::kGpu});
  // Queries over a window inside the run see exactly the window.
  EXPECT_EQ(pt.resident_pages_in_range(0x3000, 4), 4u);
  std::uint64_t seen_pages = 0;
  std::uint64_t first = 0;
  pt.for_each_run_in_range(0x3000, 4,
                           [&](std::uint64_t vpn, std::uint64_t pages, const Pte&) {
                             first = vpn;
                             seen_pages += pages;
                           });
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(seen_pages, 4u);
  // A bulk unmap clipped to the window splits the straddling run in two.
  EXPECT_EQ(pt.unmap_range(0x3000, 4), 4u);
  EXPECT_EQ(pt.run_count(), 2u);
  EXPECT_EQ(pt.mapped_pages(), 8u);
}

TEST(PageTable, WritableMismatchTerminatesResidentRun) {
  PageTable pt{kSystemPage4K};
  pt.map_range(0x0000, 6, Pte{.node = mem::Node::kCpu, .writable = true});
  pt.map(0x3000, Pte{.node = mem::Node::kCpu, .writable = false});
  // Same node throughout, but extents are attribute-maximal: the
  // permission boundary ends the batched run at page 3.
  EXPECT_EQ(pt.run_count(), 3u);
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, 0x10000, 256),
            0x3000u);
  // Restoring write permission re-merges the extent and the run again
  // spans all six pages.
  pt.map(0x3000, Pte{.node = mem::Node::kCpu, .writable = true});
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, 0x10000, 256),
            0x6000u);
}

TEST(PageTable, NumaGenerationSplitsAndRemerges) {
  PageTable pt{kSystemPage4K};
  pt.map_range(0x0000, 4, Pte{.node = mem::Node::kCpu});
  // A hint fault bumps one page's generation: the run splits around it.
  pt.set_numa_generation(0x1000, 1);
  EXPECT_EQ(pt.run_count(), 3u);
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, 0x10000, 256),
            0x1000u);
  // Once the scanner catches the neighbours up, the extent re-coalesces.
  pt.set_numa_generation(0x0000, 1);
  pt.set_numa_generation(0x2000, 1);
  pt.set_numa_generation(0x3000, 1);
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_THROW(pt.set_numa_generation(0x9000, 1), std::logic_error);
}

TEST(PageTable, SamplingDoesNotScanTheMap) {
  PageTable pt{kSystemPage64K};
  pt.map_range(0, 1u << 16, Pte{.node = mem::Node::kCpu});
  pt.set_node_range(0x100000, 16, mem::Node::kGpu);
  const std::uint64_t steps_before = pt.scan_steps();
  // Everything the profiler/report sampling path reads per tick must be
  // O(1) or O(log runs) — never a walk over the run map.
  (void)pt.resident_pages(mem::Node::kCpu);
  (void)pt.resident_pages(mem::Node::kGpu);
  (void)pt.resident_bytes(mem::Node::kGpu);
  (void)pt.mapped_pages();
  (void)pt.run_count();
  (void)pt.lookup(0x200000);
  (void)pt.resident_run_end(0x200000, mem::Node::kCpu, ~0ull, 4096);
  EXPECT_EQ(pt.scan_steps(), steps_before);
  // Linear walks do advance the counter (that is what it measures).
  pt.for_each_run([](std::uint64_t, std::uint64_t, const Pte&) {});
  EXPECT_GT(pt.scan_steps(), steps_before);
}

TEST(PageTable, GraceSupportedPageSizes) {
  // Section 2.1.3: system pages are 4 KiB or 64 KiB; GPU pages are 2 MiB.
  EXPECT_EQ(kSystemPage4K, 4096u);
  EXPECT_EQ(kSystemPage64K, 65536u);
  EXPECT_EQ(kGpuPageSize, 2u << 20);
}

TEST(Tlb, HitRefreshesAndMissCounts) {
  Tlb tlb{2};
  EXPECT_FALSE(tlb.lookup(1).has_value());
  tlb.insert(1, mem::Node::kCpu);
  EXPECT_EQ(tlb.lookup(1), mem::Node::kCpu);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEvictionOrder) {
  Tlb tlb{2};
  tlb.insert(1, mem::Node::kCpu);
  tlb.insert(2, mem::Node::kCpu);
  ASSERT_TRUE(tlb.lookup(1).has_value());  // 1 becomes MRU
  tlb.insert(3, mem::Node::kCpu);          // evicts 2
  EXPECT_TRUE(tlb.lookup(1).has_value());
  EXPECT_FALSE(tlb.lookup(2).has_value());
  EXPECT_TRUE(tlb.lookup(3).has_value());
}

TEST(Tlb, InvalidateAndFlush) {
  Tlb tlb{8};
  tlb.insert(1, mem::Node::kCpu);
  tlb.insert(2, mem::Node::kGpu);
  tlb.invalidate(1);
  EXPECT_FALSE(tlb.lookup(1).has_value());
  EXPECT_TRUE(tlb.lookup(2).has_value());
  tlb.flush();
  EXPECT_EQ(tlb.size(), 0u);
}

TEST(Tlb, CapacityZeroAlwaysMisses) {
  // Regression: a zero-capacity TLB (no-TLB ablation) used to behave as a
  // size-1 cache because insert() evicted then inserted anyway, so repeat
  // accesses to one page were under-charged their walks.
  Tlb tlb{0};
  EXPECT_FALSE(tlb.lookup(7).has_value());
  tlb.insert(7, mem::Node::kCpu);
  EXPECT_EQ(tlb.size(), 0u);
  EXPECT_FALSE(tlb.lookup(7).has_value());  // the insert must not stick
  tlb.insert(7, mem::Node::kGpu);
  tlb.insert(8, mem::Node::kGpu);
  EXPECT_FALSE(tlb.lookup(7).has_value());
  EXPECT_FALSE(tlb.lookup(8).has_value());
  EXPECT_EQ(tlb.hits(), 0u);
  EXPECT_EQ(tlb.misses(), 4u);
  EXPECT_EQ(tlb.size(), 0u);
}

TEST(Tlb, InsertUpdatesExistingNode) {
  Tlb tlb{4};
  tlb.insert(5, mem::Node::kCpu);
  tlb.insert(5, mem::Node::kGpu);
  EXPECT_EQ(tlb.size(), 1u);
  EXPECT_EQ(tlb.lookup(5), mem::Node::kGpu);
}

TEST(Tlb, AppendLruRestoresOrderAndRejectsDuplicatesAndOverflow) {
  Tlb tlb{3};
  EXPECT_TRUE(tlb.append_lru(1, mem::Node::kCpu));
  EXPECT_TRUE(tlb.append_lru(2, mem::Node::kGpu));
  EXPECT_FALSE(tlb.append_lru(1, mem::Node::kGpu));  // already cached
  EXPECT_TRUE(tlb.append_lru(3, mem::Node::kCpu));
  EXPECT_FALSE(tlb.append_lru(4, mem::Node::kCpu));  // full
  std::vector<std::uint64_t> order;
  tlb.for_each_mru([&order](std::uint64_t vpn, mem::Node) { order.push_back(vpn); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(tlb.hits() + tlb.misses(), 0u);
  tlb.insert(5, mem::Node::kCpu);  // evicts 3, the LRU end
  EXPECT_FALSE(tlb.lookup(3).has_value());
  EXPECT_EQ(tlb.lookup(1), mem::Node::kCpu);
  EXPECT_FALSE(Tlb{0}.append_lru(1, mem::Node::kCpu));
}

TEST(Tlb, AllocatesOnlyWhileGrowingTowardCapacity) {
  Tlb tlb{1536};
  const std::size_t at_start = g_news;
  for (std::uint64_t vpn = 0; vpn < 1536; ++vpn) tlb.insert(vpn, mem::Node::kCpu);
  const std::size_t grows = g_news - at_start;
  EXPECT_GT(grows, 0u);
  EXPECT_LE(grows, 8u);  // doubling from 16 slots: 16, 32, ..., 1024, 1536

  // Full: a streaming sweep (evict on every insert), hits, refreshes,
  // invalidations of both kinds, reuse of invalidated slots and a flush
  // followed by a refill all run in the storage already allocated.
  const std::size_t full = g_news;
  for (std::uint64_t vpn = 1536; vpn < 50000; ++vpn) {
    (void)tlb.lookup(vpn);
    tlb.insert(vpn, mem::Node::kGpu);
    (void)tlb.lookup(vpn - 700);
    if (vpn % 97 == 0) tlb.insert(vpn - 3, mem::Node::kCpu);
    if (vpn % 89 == 0) tlb.invalidate(vpn - 5);
    if (vpn % 1009 == 0) tlb.invalidate_range(vpn - 40, vpn - 20);
  }
  tlb.invalidate_range(0, 49000);
  for (std::uint64_t vpn = 60000; vpn < 61000; ++vpn) tlb.insert(vpn, mem::Node::kCpu);
  tlb.flush();
  for (std::uint64_t vpn = 0; vpn < 3000; ++vpn) tlb.insert(vpn, mem::Node::kCpu);
  const std::size_t after = g_news;
  EXPECT_EQ(after, full);
  EXPECT_EQ(tlb.size(), 1536u);
}

TEST(Tlb, RejectsCapacityBeyondMaxCapacity) {
  EXPECT_THROW(Tlb{Tlb::kMaxCapacity + 1}, std::length_error);
  EXPECT_NO_THROW(Tlb{Tlb::kMaxCapacity});  // storage grows lazily
}

/// Reference LRU for the differential test: the std::list + hash map
/// layout, front = most recent.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  std::optional<mem::Node> lookup(std::uint64_t vpn) {
    auto it = map_.find(vpn);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  void insert(std::uint64_t vpn, mem::Node node) {
    if (capacity_ == 0) return;
    auto it = map_.find(vpn);
    if (it != map_.end()) {
      it->second->second = node;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
    }
    lru_.emplace_front(vpn, node);
    map_[vpn] = lru_.begin();
  }
  void invalidate(std::uint64_t vpn) {
    auto it = map_.find(vpn);
    if (it == map_.end()) return;
    lru_.erase(it->second);
    map_.erase(it);
  }
  void invalidate_range(std::uint64_t first, std::uint64_t last) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->first >= first && it->first < last) {
        map_.erase(it->first);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }
  void flush() {
    lru_.clear();
    map_.clear();
  }

  [[nodiscard]] bool contains(std::uint64_t vpn) const { return map_.contains(vpn); }
  [[nodiscard]] const std::list<std::pair<std::uint64_t, mem::Node>>& lru() const {
    return lru_;
  }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  using Entry = std::pair<std::uint64_t, mem::Node>;
  std::size_t capacity_;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Number of positions where the TLB's MRU order departs from the
/// reference's (a length difference counts as one).
std::size_t order_mismatches(const Tlb& tlb, const ReferenceLru& ref) {
  std::size_t bad = 0;
  auto it = ref.lru().begin();
  tlb.for_each_mru([&](std::uint64_t vpn, mem::Node node) {
    if (it == ref.lru().end()) {
      ++bad;
      return;
    }
    if (it->first != vpn || it->second != node) ++bad;
    ++it;
  });
  if (it != ref.lru().end()) ++bad;
  return bad;
}

TEST(Tlb, RandomizedOperationsMatchReferenceLru) {
  for (const std::size_t cap : {0, 1, 2, 3, 17, 1536, 4096}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << cap);
    Tlb tlb{cap};
    ReferenceLru ref{cap};
    std::mt19937_64 rng{0x7b1bu + cap};
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };
    // Phases cycle the VPN span from well inside the capacity (hits and
    // refreshes) to several times it (evictions), plus a streaming sweep
    // of fresh pages (evict on every insert). Phases are long enough, and
    // flushes rare enough, for the largest TLB to fill and evict.
    const std::uint64_t spans[] = {cap / 2 + 2, cap + cap / 4 + 2, 4 * cap + 8};
    const std::size_t phase_len = std::max<std::size_t>(500, cap);
    const std::size_t ops = 12 * phase_len;
    std::uint64_t stream = 1ull << 40;
    std::size_t hits = 0, refreshes = 0, evictions = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      const std::size_t phase = (i / phase_len) % 4;
      const std::uint64_t span = phase < 3 ? spans[phase] : 0;
      const auto next_vpn = [&] { return phase < 3 ? below(span) : stream++; };
      const std::uint64_t op = below(1000);
      if (op < 400) {
        const std::uint64_t vpn = next_vpn();
        const auto got = tlb.lookup(vpn);
        const auto want = ref.lookup(vpn);
        ASSERT_EQ(got, want) << "lookup " << vpn << " at op " << i;
        hits += want.has_value() ? 1 : 0;
      } else if (op < 850) {
        const std::uint64_t vpn = next_vpn();
        const mem::Node node = below(2) == 0 ? mem::Node::kCpu : mem::Node::kGpu;
        const bool cached = ref.contains(vpn);
        refreshes += cached ? 1 : 0;
        evictions += !cached && cap > 0 && ref.lru().size() == cap ? 1 : 0;
        tlb.insert(vpn, node);
        ref.insert(vpn, node);
      } else if (op < 940) {
        const std::uint64_t vpn = phase < 3 ? below(span) : stream - 1 - below(8);
        tlb.invalidate(vpn);
        ref.invalidate(vpn);
      } else {
        // Mostly narrow ranges; rarely a wide one that empties most of
        // the TLB.
        const std::uint64_t base = phase < 3 ? below(span) : stream - below(64);
        const std::uint64_t len = op == 999 ? below(2 * cap + 16) : below(8);
        tlb.invalidate_range(base, base + len);
        ref.invalidate_range(base, base + len);
      }
      if (i % (8 * phase_len) == 8 * phase_len - 1) {
        tlb.flush();
        ref.flush();
      }
      ASSERT_EQ(tlb.hits(), ref.hits()) << "op " << i;
      ASSERT_EQ(tlb.misses(), ref.misses()) << "op " << i;
      ASSERT_EQ(tlb.size(), ref.lru().size()) << "op " << i;
      ASSERT_LE(tlb.size(), tlb.capacity());
      ASSERT_EQ(order_mismatches(tlb, ref), 0u) << "op " << i;
    }
    if (cap > 0) {
      EXPECT_GT(hits, 0u);
      EXPECT_GT(refreshes, 0u);
      EXPECT_GT(evictions, 0u);
    }
  }
}

TEST(Tlb, PartlyFullTlbsSurviveSnapshotRestore) {
  core::SystemConfig cfg;
  cfg.hbm_capacity = 16ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.cpu_tlb_entries = 40;
  core::System sys{cfg};
  Tlb& cpu = sys.machine().smmu().cpu_tlb();
  // 100 inserts over 60 VPNs into 40 entries: evicts, refreshes, and a
  // hole punched by an invalidation; the other TLBs stay partly full.
  for (std::uint64_t i = 0; i < 100; ++i) {
    cpu.insert((i * 37) % 60, i % 3 == 0 ? mem::Node::kGpu : mem::Node::kCpu);
    (void)cpu.lookup((i * 11) % 60);
  }
  cpu.invalidate_range(20, 26);
  sys.machine().smmu().ats_tlb().insert(9, mem::Node::kGpu);
  sys.machine().gmmu().utlb_sys().insert(10, mem::Node::kCpu);
  ASSERT_GT(cpu.size(), 0u);
  ASSERT_LT(cpu.size(), cpu.capacity());

  const chk::Blob blob = chk::Snapshotter::snapshot(sys);
  std::unique_ptr<core::System> back = chk::Snapshotter::restore(blob);
  const auto entries = [](const Tlb& t) {
    std::vector<std::pair<std::uint64_t, mem::Node>> v;
    t.for_each_mru([&v](std::uint64_t vpn, mem::Node n) { v.emplace_back(vpn, n); });
    return v;
  };
  const auto tlbs = [](core::System& s) {
    auto& m = s.machine();
    return std::vector<Tlb*>{&m.smmu().cpu_tlb(), &m.smmu().ats_tlb(),
                             &m.gmmu().utlb_gpu(), &m.gmmu().utlb_sys()};
  };
  const std::vector<Tlb*> before = tlbs(sys);
  const std::vector<Tlb*> after = tlbs(*back);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(entries(*after[i]), entries(*before[i])) << "tlb " << i;
    EXPECT_EQ(after[i]->hits(), before[i]->hits()) << "tlb " << i;
    EXPECT_EQ(after[i]->misses(), before[i]->misses()) << "tlb " << i;
    EXPECT_EQ(after[i]->capacity(), before[i]->capacity()) << "tlb " << i;
  }
  // The restored recency order drives the same evictions from here on.
  Tlb& cpu_back = *after[0];
  for (std::uint64_t vpn = 100; vpn < 140; vpn += 3) {
    cpu.insert(vpn, mem::Node::kCpu);
    cpu_back.insert(vpn, mem::Node::kCpu);
    ASSERT_EQ(entries(cpu_back), entries(cpu)) << "after inserting " << vpn;
  }
  EXPECT_EQ(chk::Snapshotter::state_digest(*back),
            chk::Snapshotter::state_digest(sys));
}

class SmmuTest : public ::testing::Test {
 protected:
  PageTable pt{kSystemPage64K};
  Smmu smmu{pt, SmmuCosts{}, 16, 16};
};

TEST_F(SmmuTest, UnmappedPageFaultsWithWalkCost) {
  const Translation t = smmu.translate_cpu(0x10000);
  EXPECT_FALSE(t.present);
  EXPECT_EQ(t.cost, smmu.costs().walk);
}

TEST_F(SmmuTest, MappedPageHitsTlbSecondTime) {
  pt.map(0x10000, Pte{.node = mem::Node::kCpu});
  const Translation t1 = smmu.translate_cpu(0x10000);
  EXPECT_TRUE(t1.present);
  EXPECT_FALSE(t1.tlb_hit);
  const Translation t2 = smmu.translate_cpu(0x10000 + 100);
  EXPECT_TRUE(t2.tlb_hit);
  EXPECT_EQ(t2.cost, 0);
}

TEST_F(SmmuTest, AtsRequestCostsC2CRoundTrip) {
  pt.map(0x20000, Pte{.node = mem::Node::kCpu});
  const Translation t = smmu.translate_ats(0x20000);
  EXPECT_TRUE(t.present);
  EXPECT_EQ(t.cost, smmu.costs().ats_round_trip + smmu.costs().walk);
  // Cached in the ATS TLB afterwards.
  EXPECT_TRUE(smmu.translate_ats(0x20000).tlb_hit);
}

TEST_F(SmmuTest, InvalidateDropsBothTlbs) {
  pt.map(0x30000, Pte{.node = mem::Node::kGpu});
  (void)smmu.translate_cpu(0x30000);
  (void)smmu.translate_ats(0x30000);
  smmu.invalidate(0x30000);
  EXPECT_FALSE(smmu.translate_cpu(0x30000).tlb_hit);
  EXPECT_FALSE(smmu.translate_ats(0x30000).tlb_hit);
}

class GmmuTest : public ::testing::Test {
 protected:
  PageTable sys_pt{kSystemPage64K};
  PageTable gpu_pt{kGpuPageSize};
  Smmu smmu{sys_pt, SmmuCosts{}, 16, 16};
  Gmmu gmmu{gpu_pt, smmu, GmmuCosts{}, 16, 16};
};

TEST_F(GmmuTest, GpuTableMissIsManagedFault) {
  const GpuTranslation t = gmmu.translate_gpu_table(0x200000);
  EXPECT_EQ(t.outcome, GpuXlatOutcome::kManagedFault);
}

TEST_F(GmmuTest, GpuTableHitAfterMap) {
  gpu_pt.map(0x200000, Pte{.node = mem::Node::kGpu});
  const GpuTranslation t1 = gmmu.translate_gpu_table(0x200000);
  EXPECT_EQ(t1.outcome, GpuXlatOutcome::kResident);
  EXPECT_FALSE(t1.tlb_hit);
  // Whole 2 MiB block served by one uTLB entry.
  const GpuTranslation t2 = gmmu.translate_gpu_table(0x200000 + (1 << 20));
  EXPECT_TRUE(t2.tlb_hit);
}

TEST_F(GmmuTest, SystemPathFirstTouchThenAtsCached) {
  const GpuTranslation t0 = gmmu.translate_system(0x40000);
  EXPECT_EQ(t0.outcome, GpuXlatOutcome::kSystemFirstTouch);
  sys_pt.map(0x40000, Pte{.node = mem::Node::kCpu});
  const GpuTranslation t1 = gmmu.translate_system(0x40000);
  EXPECT_EQ(t1.outcome, GpuXlatOutcome::kResident);
  EXPECT_FALSE(t1.tlb_hit);
  EXPECT_TRUE(gmmu.translate_system(0x40000 + 64).tlb_hit);
}

TEST_F(GmmuTest, SystemInvalidationForcesNewAtsRequest) {
  sys_pt.map(0x40000, Pte{.node = mem::Node::kCpu});
  (void)gmmu.translate_system(0x40000);
  gmmu.invalidate_system(0x40000);
  EXPECT_FALSE(gmmu.translate_system(0x40000).tlb_hit);
}

}  // namespace
}  // namespace ghum::pagetable
