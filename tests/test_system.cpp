#include <gtest/gtest.h>

#include "core/system.hpp"
#include "profile/tracer.hpp"

namespace ghum {
namespace {

core::SystemConfig sys_config(std::uint64_t page = pagetable::kSystemPage64K) {
  core::SystemConfig cfg;
  cfg.system_page_size = page;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.event_log = true;
  return cfg;
}

TEST(System, RejectsUnsupportedPageSize) {
  core::SystemConfig cfg = sys_config();
  cfg.system_page_size = 16 << 10;
  EXPECT_THROW(core::System{cfg}, std::invalid_argument);
}

TEST(System, ContextInitChargedOnceAtFirstCudaCall) {
  core::System sys{sys_config()};
  EXPECT_FALSE(sys.gpu_context_initialized());
  // malloc() is NOT a CUDA call: no context init.
  (void)sys.sys_malloc(1 << 20);
  EXPECT_FALSE(sys.gpu_context_initialized());
  const sim::Picos t0 = sys.now();
  (void)sys.managed_malloc(1 << 20);
  EXPECT_TRUE(sys.gpu_context_initialized());
  EXPECT_GE(sys.now() - t0, sys.config().costs.context_init);
  // Second CUDA call: no second charge.
  const sim::Picos t1 = sys.now();
  (void)sys.gpu_malloc(1 << 20);
  EXPECT_LT(sys.now() - t1, sys.config().costs.context_init);
}

TEST(System, SystemVersionPaysContextInitInFirstKernel) {
  // Paper Section 4: without CUDA allocations, the first kernel launch
  // implicitly initializes the GPU context.
  core::System sys{sys_config()};
  (void)sys.sys_malloc(1 << 20);
  sys.kernel_begin("k");
  const auto& rec = sys.kernel_end();
  EXPECT_GE(rec.duration, sys.config().costs.context_init);
}

TEST(System, GpuMallocFailsWithBadAllocWhenFull) {
  core::System sys{sys_config()};
  (void)sys.gpu_malloc(6ull << 20);  // 7 MiB free after baseline
  EXPECT_THROW((void)sys.gpu_malloc(4ull << 20), std::bad_alloc);
  // Failed allocation must not leak frames.
  EXPECT_GE(sys.gpu_free_bytes(), 1ull << 20);
}

TEST(System, ResolveOutsideAnyAllocationThrows) {
  core::System sys{sys_config()};
  EXPECT_THROW((void)sys.resolve(0xdeadbeef, mem::Node::kCpu), std::out_of_range);
}

TEST(System, CpuAccessToGpuOnlyThrows) {
  core::System sys{sys_config()};
  core::Buffer b = sys.gpu_malloc(1 << 20);
  EXPECT_THROW((void)sys.resolve(b.va, mem::Node::kCpu), std::logic_error);
}

TEST(System, FirstTouchPlacementFollowsOrigin) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(4 << 20);
  const auto cpu_view = sys.resolve(b.va, mem::Node::kCpu);
  EXPECT_EQ(cpu_view.node, mem::Node::kCpu);
  sys.kernel_begin("k");
  const auto gpu_view = sys.resolve(b.va + (1 << 20), mem::Node::kGpu);
  EXPECT_EQ(gpu_view.node, mem::Node::kGpu);
  (void)sys.kernel_end();
}

TEST(System, SystemPageViewBoundsAreSystemPages) {
  core::System sys{sys_config(pagetable::kSystemPage4K)};
  core::Buffer b = sys.sys_malloc(1 << 20);
  const auto v = sys.resolve(b.va + 5000, mem::Node::kCpu);
  EXPECT_EQ(v.page_base, b.va + 4096);
  EXPECT_EQ(v.page_end, b.va + 8192);
}

TEST(System, ManagedGpuViewSpansWholeBlock) {
  core::System sys{sys_config()};
  core::Buffer b = sys.managed_malloc(4 << 20);
  sys.kernel_begin("k");
  const auto v = sys.resolve(b.va + 100, mem::Node::kGpu);
  (void)sys.kernel_end();
  EXPECT_EQ(v.node, mem::Node::kGpu);
  EXPECT_EQ(v.page_base, b.va);
  EXPECT_EQ(v.page_end, b.va + (2 << 20));
}

TEST(System, CommitChargesRemoteTrafficOverC2C) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(1 << 20);
  // CPU first touch -> CPU-resident.
  const auto cpu_view = sys.resolve(b.va, mem::Node::kCpu);
  sys.commit(cpu_view, 64 << 10, 0, 1024, 16384);
  sys.kernel_begin("k");
  const auto gpu_view = sys.resolve(b.va, mem::Node::kGpu);
  EXPECT_EQ(gpu_view.node, mem::Node::kCpu);  // stays CPU-resident
  const std::uint64_t h2d0 =
      sys.machine().c2c().bytes_moved(interconnect::Direction::kCpuToGpu);
  sys.commit(gpu_view, 64 << 10, 0, 512, 16384);
  const std::uint64_t h2d1 =
      sys.machine().c2c().bytes_moved(interconnect::Direction::kCpuToGpu);
  const auto& rec = sys.kernel_end();
  EXPECT_EQ(h2d1 - h2d0, 512u * 128u);  // GPU cacheline granularity
  EXPECT_EQ(rec.traffic.c2c_read_bytes, 512u * 128u);
  EXPECT_EQ(rec.traffic.l1l2_bytes, 512u * 128u);
}

TEST(System, CommitChargesLocalHbmForGpuResidentData) {
  core::System sys{sys_config()};
  core::Buffer b = sys.gpu_malloc(1 << 20);
  sys.kernel_begin("k");
  const auto v = sys.resolve(b.va, mem::Node::kGpu);
  sys.commit(v, 1 << 20, 0, (1 << 20) / 128, 1 << 18);
  const auto& rec = sys.kernel_end();
  EXPECT_EQ(rec.traffic.hbm_read_bytes, 1u << 20);
  EXPECT_EQ(rec.traffic.c2c_read_bytes, 0u);
}

TEST(System, SparseAccessIsLineAmplified) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(1 << 20);
  sys.host_phase_begin("sparse");
  const auto v = sys.resolve(b.va, mem::Node::kCpu);
  // 100 separate 4-byte reads on distinct lines: charged 100 * 64 B of
  // DDR traffic (read amplification for irregular patterns).
  sys.commit(v, 400, 0, 100, 100);
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_read_bytes, 100u * 64u);
}

TEST(System, KernelComputeFloorExtendsShortKernels) {
  core::System sys{sys_config()};
  sys.ensure_gpu_context();
  sys.kernel_begin("compute_bound");
  const auto& rec = sys.kernel_end(/*flop_work=*/30e9);  // 1 ms at 30 TFLOPS
  EXPECT_NEAR(sim::to_seconds(rec.duration), 1e-3,
              1e-4 + sim::to_seconds(sys.config().costs.kernel_launch));
}

TEST(System, MemcpyMovesRealBytesAndChargesLink) {
  core::System sys{sys_config()};
  core::Buffer host = sys.sys_malloc(64 << 10);
  core::Buffer dev = sys.gpu_malloc(64 << 10);
  auto* p = reinterpret_cast<std::uint32_t*>(host.host);
  for (int i = 0; i < 1024; ++i) p[i] = 0xabcd0000u + static_cast<std::uint32_t>(i);
  const sim::Picos t0 = sys.now();
  sys.memcpy_buffers(dev, 0, host, 0, 64 << 10);
  EXPECT_GT(sys.now(), t0);
  EXPECT_EQ(reinterpret_cast<std::uint32_t*>(dev.host)[1023], 0xabcd0000u + 1023);
  EXPECT_GE(sys.machine().c2c().bytes_moved(interconnect::Direction::kCpuToGpu),
            std::uint64_t{64} << 10);
}

TEST(System, MemcpyOutOfRangeThrows) {
  core::System sys{sys_config()};
  core::Buffer a = sys.sys_malloc(1 << 10);
  core::Buffer b = sys.sys_malloc(1 << 10);
  EXPECT_THROW(sys.memcpy_buffers(a, 512, b, 0, 1 << 10), std::out_of_range);
}

TEST(System, FreeBufferReleasesEverything) {
  core::System sys{sys_config()};
  core::Buffer b = sys.managed_malloc(4 << 20);
  sys.kernel_begin("k");
  const auto v = sys.resolve(b.va, mem::Node::kGpu);
  (void)v;
  (void)sys.kernel_end();
  const std::uint64_t used_before = sys.machine().gpu_used_bytes();
  EXPECT_GT(used_before, sys.config().gpu_driver_baseline);
  sys.free_buffer(b);
  EXPECT_EQ(sys.machine().gpu_used_bytes(), sys.config().gpu_driver_baseline);
  EXPECT_FALSE(b.valid());
}

TEST(System, PhasesCannotNest) {
  core::System sys{sys_config()};
  sys.ensure_gpu_context();
  sys.kernel_begin("a");
  EXPECT_THROW(sys.kernel_begin("b"), std::logic_error);
  (void)sys.kernel_end();
  EXPECT_THROW((void)sys.kernel_end(), std::logic_error);
}

TEST(System, PinnedMemoryIsGpuAccessibleWithoutMigration) {
  core::System sys{sys_config()};
  core::Buffer pin = sys.pinned_malloc(128 << 10);
  sys.kernel_begin("k");
  const auto v = sys.resolve(pin.va, mem::Node::kGpu);
  sys.commit(v, 4096, 0, 32, 1024);
  const auto& rec = sys.kernel_end();
  EXPECT_EQ(v.node, mem::Node::kCpu);
  EXPECT_GT(rec.traffic.c2c_read_bytes, 0u);
  // Still resident on the CPU, nothing migrated.
  EXPECT_EQ(sys.machine().address_space().find(pin.va)->resident_cpu_bytes,
            std::uint64_t{128} << 10);
}

TEST(System, EpochBumpsOnResidencyChanges) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(1 << 20);
  const std::uint64_t e0 = sys.epoch();
  (void)sys.resolve(b.va, mem::Node::kCpu);  // first touch maps a page
  EXPECT_GT(sys.epoch(), e0);
}

TEST(System, PrefetchSystemBufferMigratesPages) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(512 << 10);
  for (std::uint64_t off = 0; off < b.bytes; off += 64 << 10) {
    (void)sys.resolve(b.va + off, mem::Node::kCpu);
  }
  sys.prefetch(b, 0, b.bytes, mem::Node::kGpu);
  EXPECT_EQ(sys.machine().address_space().find(b.va)->resident_gpu_bytes,
            std::uint64_t{512} << 10);
}

TEST(System, SummaryListsCountersAndUsage) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(1 << 20);
  (void)sys.resolve(b.va, mem::Node::kCpu);
  const std::string s = sys.summary();
  EXPECT_NE(s.find("simulated time"), std::string::npos);
  EXPECT_NE(s.find("os.fault.cpu_first_touch"), std::string::npos);
  EXPECT_NE(s.find("cpu rss"), std::string::npos);
}

TEST(System, AutoNumaHintFaultsChargedOncePerScanGeneration) {
  core::SystemConfig cfg = sys_config();
  cfg.autonuma_balancing = true;
  cfg.autonuma_scan_period = sim::milliseconds(1);
  core::System sys{cfg};
  core::Buffer b = sys.sys_malloc(1 << 20);
  (void)sys.resolve(b.va, mem::Node::kCpu);  // first touch
  const std::uint64_t f0 = sys.stats().get("os.numa_hint_faults");
  EXPECT_GE(f0, 1u);
  // Same scan window: no second hint fault for the same page.
  (void)sys.resolve(b.va + 64, mem::Node::kCpu);
  EXPECT_EQ(sys.stats().get("os.numa_hint_faults"), f0);
  // Next scan window: the scanner has unmapped it again.
  sys.advance(sim::milliseconds(2));
  (void)sys.resolve(b.va, mem::Node::kCpu);
  EXPECT_EQ(sys.stats().get("os.numa_hint_faults"), f0 + 1);
}

TEST(System, HintFaultedPageSplitsBatchedRunBitIdentically) {
  // A hint fault bumps one page's AutoNUMA generation, which must split
  // the extent it lived in — the batched run may not coast over a page a
  // per-access walk would hint-fault on. The end time and event digest are
  // golden values recorded from the retired per-access accounting path.
  core::SystemConfig cfg = sys_config();
  cfg.autonuma_balancing = true;
  cfg.autonuma_scan_period = sim::milliseconds(1);
  core::System sys{cfg};
  core::Buffer b = sys.sys_malloc(1 << 20);
  const std::uint64_t page = cfg.system_page_size;
  for (std::uint64_t off = 0; off < b.bytes; off += page) {
    (void)sys.resolve(b.va + off, mem::Node::kCpu);
  }
  const auto& pt = sys.machine().system_pt();
  EXPECT_EQ(pt.run_count(), 1u);  // uniform generation => one extent
  // Next scan window: hint-fault only the middle page.
  sys.advance(sim::milliseconds(2));
  (void)sys.resolve(b.va + 7 * page, mem::Node::kCpu);
  EXPECT_EQ(pt.run_count(), 3u);
  // The batched run from the base stops at the hint-faulted page even
  // though node and permissions match across the whole allocation.
  EXPECT_EQ(pt.resident_run_end(b.va, mem::Node::kCpu, b.va + b.bytes, 4096),
            b.va + 7 * page);
  // Touching the rest of the window catches the generations up and the
  // extent heals.
  for (std::uint64_t off = 0; off < b.bytes; off += page) {
    (void)sys.resolve(b.va + off, mem::Node::kCpu);
  }
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_EQ(sys.now(), 2083484800);
  EXPECT_EQ(sys.events().digest(sys.now()), 0x0349c39d969d6150ull);
}

TEST(System, AutoNumaDisabledByDefaultLikeThePaperTestbed) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(1 << 20);
  (void)sys.resolve(b.va, mem::Node::kCpu);
  sys.advance(sim::milliseconds(5));
  (void)sys.resolve(b.va, mem::Node::kCpu);
  EXPECT_EQ(sys.stats().get("os.numa_hint_faults"), 0u);
}

TEST(System, AutoNumaGpuHintFaultIsHeavierThanCpuOne) {
  core::SystemConfig cfg = sys_config();
  cfg.autonuma_balancing = true;
  core::System sys{cfg};
  core::Buffer b = sys.sys_malloc(4 << 20);
  (void)sys.resolve(b.va, mem::Node::kCpu);  // CPU first touch + hint
  sys.advance(sim::milliseconds(2));
  const sim::Picos t0 = sys.now();
  (void)sys.resolve(b.va, mem::Node::kCpu);  // CPU hint fault
  const sim::Picos cpu_cost = sys.now() - t0;
  sys.advance(sim::milliseconds(2));
  sys.kernel_begin("k");
  const sim::Picos t1 = sys.now();
  (void)sys.resolve(b.va, mem::Node::kGpu);  // GPU hint fault (replayable)
  const sim::Picos gpu_cost = sys.now() - t1;
  (void)sys.kernel_end();
  EXPECT_GT(gpu_cost, cpu_cost);
}

TEST(System, WorkloadRecordsMigrationTrafficSeparately) {
  core::System sys{sys_config()};
  core::Buffer b = sys.managed_malloc(2 << 20);
  // CPU-populate, then fault from GPU inside a kernel: the migration bytes
  // must show up as migration traffic, not direct-access traffic.
  for (std::uint64_t off = 0; off < b.bytes; off += 64 << 10) {
    (void)sys.resolve(b.va + off, mem::Node::kCpu);
  }
  sys.kernel_begin("k");
  (void)sys.resolve(b.va, mem::Node::kGpu);
  const auto& rec = sys.kernel_end();
  EXPECT_EQ(rec.traffic.migration_h2d_bytes, 2u << 20);
  EXPECT_EQ(rec.traffic.c2c_read_bytes, 0u);
}

}  // namespace
}  // namespace ghum
