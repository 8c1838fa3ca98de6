#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/span.hpp"
#include "sim/rng.hpp"

namespace ghum {
namespace {

core::SystemConfig span_config() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage4K;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.gpu_driver_baseline = 0;
  cfg.event_log = true;
  return cfg;
}

class SpanTest : public ::testing::Test {
 protected:
  core::System sys{span_config()};
  runtime::Runtime rt{sys};
};

TEST_F(SpanTest, LoadStoreRoundTripsRealData) {
  core::Buffer b = rt.malloc_system(1 << 16);
  sys.host_phase_begin("p");
  {
    auto s = rt.host_span<int>(b);
    for (int i = 0; i < 1000; ++i) s.store(i, i * 3);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(s.load(i), i * 3);
  }
  (void)sys.host_phase_end();
}

TEST_F(SpanTest, SequentialSweepChargesRawByteVolume) {
  core::Buffer b = rt.malloc_system(1 << 16);
  sys.host_phase_begin("seq");
  {
    auto s = rt.host_span<float>(b);
    for (std::size_t i = 0; i < s.size(); ++i) s.store(i, 1.0f);
  }
  const auto& rec = sys.host_phase_end();
  // Dense write sweep: line volume equals the buffer size exactly.
  EXPECT_EQ(rec.traffic.ddr_write_bytes, std::uint64_t{1} << 16);
}

TEST_F(SpanTest, StridedSweepIsAmplifiedToWholeLines) {
  core::Buffer b = rt.malloc_system(1 << 16);
  sys.host_phase_begin("strided");
  {
    auto s = rt.host_span<float>(b);
    // One 4-byte store per 64-byte line: 1024 lines.
    for (std::size_t i = 0; i < s.size(); i += 16) s.store(i, 1.0f);
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_write_bytes, 1024u * 64u);
}

TEST_F(SpanTest, RepeatedAccessToSameLineCountsOncePerPageVisit) {
  core::Buffer b = rt.malloc_system(1 << 16);
  sys.host_phase_begin("reuse");
  {
    auto s = rt.host_span<float>(b);
    for (int rep = 0; rep < 100; ++rep) {
      (void)s.load(3);  // same element, same line, same page visit
    }
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_read_bytes, 64u);
}

TEST_F(SpanTest, PageTransitionFlushesAndReresolves) {
  core::Buffer b = rt.malloc_system(16 << 10);  // 4 pages of 4 KiB
  sys.host_phase_begin("pages");
  {
    auto s = rt.host_span<std::uint8_t>(b);
    s.store(0, 1);
    s.store(4096, 1);
    s.store(8192, 1);
    s.store(12288, 1);
  }
  (void)sys.host_phase_end();
  // Four first-touch faults: one per page.
  EXPECT_EQ(sys.stats().get("os.fault.cpu_first_touch"), 4u);
}

TEST_F(SpanTest, GpuSpanUses128ByteLines) {
  core::Buffer b = rt.malloc_device(1 << 16);
  auto rec = rt.launch("k", 0, [&] {
    auto s = rt.device_span<float>(b);
    // One store per 128-byte line: 512 lines.
    for (std::size_t i = 0; i < s.size(); i += 32) s.store(i, 2.0f);
  });
  EXPECT_EQ(rec.traffic.l1l2_bytes, 512u * 128u);
}

TEST_F(SpanTest, EpochInvalidationAfterMigration) {
  core::Buffer b = rt.malloc_system(64 << 10);
  sys.host_phase_begin("touch");
  {
    auto s = rt.host_span<float>(b);
    for (std::size_t i = 0; i < s.size(); ++i) s.store(i, 1.0f);
  }
  (void)sys.host_phase_end();
  auto rec = rt.launch("k", 0, [&] {
    auto s = rt.device_span<float>(b);
    (void)s.load(0);  // resolves page 0 (CPU-resident, remote)
    // Mid-kernel migration invalidates the cached view via the epoch.
    sys.prefetch(b, 0, b.bytes, mem::Node::kGpu);
    (void)s.load(1);  // must re-resolve and see GPU-resident data
  });
  EXPECT_GT(rec.traffic.hbm_read_bytes, 0u);
}

TEST_F(SpanTest, OffsetSpanAddressesSubrange) {
  core::Buffer b = rt.malloc_system(1 << 12);
  sys.host_phase_begin("off");
  {
    auto s = rt.host_span<std::uint32_t>(b, 16, 4);
    EXPECT_EQ(s.size(), 4u);
    s.store(0, 7);
  }
  (void)sys.host_phase_end();
  EXPECT_EQ(reinterpret_cast<std::uint32_t*>(b.host)[16], 7u);
}

TEST_F(SpanTest, MutateCountsReadAndWrite) {
  core::Buffer b = rt.malloc_system(1 << 12);
  sys.host_phase_begin("rmw");
  {
    auto s = rt.host_span<int>(b);
    s.mutate(0) += 1;
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_GT(rec.traffic.ddr_read_bytes, 0u);
  EXPECT_GT(rec.traffic.ddr_write_bytes, 0u);
}

TEST_F(SpanTest, ChasedLoadsPayFullTierLatency) {
  core::Buffer local = rt.malloc_host(1 << 12);
  sys.host_phase_begin("chase");
  const sim::Picos t0 = sys.now();
  {
    auto s = rt.host_span<std::uint32_t>(local);
    std::uint32_t cur = 0;
    for (int hop = 0; hop < 100; ++hop) cur = s.load_chased(cur % 1024);
    (void)cur;
  }
  (void)sys.host_phase_end();
  // 100 hops x 110 ns LPDDR5X latency dominates.
  EXPECT_GE(sys.now() - t0, 100 * sim::nanoseconds(110));
}

TEST_F(SpanTest, RemoteChaseIsSlowerThanLocalChase) {
  auto chase = [&](const core::Buffer& buf, mem::Node origin) {
    const sim::Picos t0 = sys.now();
    if (origin == mem::Node::kGpu) sys.kernel_begin("chase");
    {
      runtime::Span<std::uint32_t> s{sys, buf, origin};
      for (int hop = 0; hop < 100; ++hop) (void)s.load_chased(0);
    }
    if (origin == mem::Node::kGpu) {
      (void)sys.kernel_end();
    }
    return sys.now() - t0;
  };
  sys.ensure_gpu_context();
  core::Buffer dev = rt.malloc_device(1 << 12);
  core::Buffer host_side = rt.malloc_host(1 << 12);
  const sim::Picos local = chase(dev, mem::Node::kGpu);
  const sim::Picos remote = chase(host_side, mem::Node::kGpu);
  EXPECT_GT(remote, local);
}

TEST_F(SpanTest, RandomPatternChargesMatchAnalyticLineCount) {
  // Property: for any access pattern within one page visit, charged line
  // volume equals (distinct cachelines touched) x line size.
  core::Buffer b = rt.malloc_system(4 << 10);  // one 4 KiB page
  sim::Rng rng{123};
  std::vector<std::uint64_t> offsets;
  for (int i = 0; i < 400; ++i) offsets.push_back(rng.next_below(1024));
  std::set<std::uint64_t> distinct_lines;
  for (auto off : offsets) distinct_lines.insert(off * 4 / 64);

  sys.host_phase_begin("rand");
  {
    auto s = rt.host_span<std::uint32_t>(b);
    for (auto off : offsets) (void)s.load(off);
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_read_bytes, distinct_lines.size() * 64);
}

TEST_F(SpanTest, BulkRunChargesExactlyLikeScalarLoop) {
  // Same multi-page workload (unaligned start, partial tail, store sweep
  // then re-read) on two identical buffers: the bulk accessors must charge
  // the same bytes, lines and simulated time as the per-element loop.
  const std::uint64_t bytes = 96 << 10;  // 24 pages of 4 KiB
  core::Buffer a = rt.malloc_system(bytes);
  core::Buffer b = rt.malloc_system(bytes);
  const std::size_t n = bytes / sizeof(float) - 12;
  sys.host_phase_begin("scalar");
  {
    auto s = rt.host_span<float>(a);
    for (std::size_t i = 0; i < n; ++i) s.store(7 + i, 1.0f);
    for (std::size_t i = 0; i < n; ++i) (void)s.load(7 + i);
  }
  const cache::KernelRecord scalar = sys.host_phase_end();
  sys.host_phase_begin("bulk");
  {
    auto s = rt.host_span<float>(b);
    std::fill_n(s.store_run(7, n), n, 1.0f);
    (void)s.load_run(7, n);
  }
  const cache::KernelRecord bulk = sys.host_phase_end();
  EXPECT_EQ(bulk.traffic.ddr_write_bytes, scalar.traffic.ddr_write_bytes);
  EXPECT_EQ(bulk.traffic.ddr_read_bytes, scalar.traffic.ddr_read_bytes);
  EXPECT_EQ(bulk.duration, scalar.duration);
}

TEST_F(SpanTest, BulkRunGpuRemoteAccessMatchesScalar) {
  // GPU-origin access to CPU-resident system memory (the paper's hot
  // remote path, 128-byte lines over C2C): bulk == scalar, including the
  // GPU first-touch faults and link traffic.
  const std::uint64_t bytes = 64 << 10;
  core::Buffer a = rt.malloc_system(bytes);
  core::Buffer b = rt.malloc_system(bytes);
  const std::size_t n = bytes / sizeof(float);
  (void)rt.launch("warmup", 0, [] {});  // pay the one-time context init
  const auto scalar = rt.launch("scalar", 0, [&] {
    auto s = rt.device_span<float>(a);
    for (std::size_t i = 0; i < n; ++i) s.store(i, 2.0f);
  });
  const auto bulk = rt.launch("bulk", 0, [&] {
    auto s = rt.device_span<float>(b);
    std::fill_n(s.store_run(0, n), n, 2.0f);
  });
  EXPECT_EQ(bulk.traffic.c2c_write_bytes, scalar.traffic.c2c_write_bytes);
  EXPECT_EQ(bulk.traffic.l1l2_bytes, scalar.traffic.l1l2_bytes);
  EXPECT_EQ(bulk.traffic.gpu_first_touch_faults,
            scalar.traffic.gpu_first_touch_faults);
  EXPECT_EQ(bulk.duration, scalar.duration);
}

TEST_F(SpanTest, BulkRunRoundTripsRealData) {
  core::Buffer buf = rt.malloc_system(8 << 10);
  sys.host_phase_begin("rw");
  {
    auto s = rt.host_span<int>(buf);
    int* w = s.store_run(3, 1000);
    for (int i = 0; i < 1000; ++i) w[i] = i * 7;
    const int* r = s.load_run(3, 1000);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(r[i], i * 7);
  }
  (void)sys.host_phase_end();
}

TEST_F(SpanTest, BulkRunWideElementsFallBackToScalarMarking) {
  // Elements wider than a cacheline mark only their start lines; the bulk
  // path must not over-mark the lines in between.
  struct Wide {
    unsigned char d[96];  // > 64-byte CPU line
  };
  core::Buffer a = rt.malloc_system(32 << 10);
  core::Buffer b = rt.malloc_system(32 << 10);
  const std::size_t n = (32 << 10) / sizeof(Wide);
  sys.host_phase_begin("scalar");
  {
    auto s = rt.host_span<Wide>(a);
    for (std::size_t i = 0; i < n; ++i) s.store(i, Wide{});
  }
  const cache::KernelRecord scalar = sys.host_phase_end();
  sys.host_phase_begin("bulk");
  {
    auto s = rt.host_span<Wide>(b);
    std::fill_n(s.store_run(0, n), n, Wide{});
  }
  const cache::KernelRecord bulk = sys.host_phase_end();
  EXPECT_EQ(bulk.traffic.ddr_write_bytes, scalar.traffic.ddr_write_bytes);
  EXPECT_EQ(bulk.duration, scalar.duration);
}

TEST_F(SpanTest, ConstructionPastTheBufferThrowsOutOfRange) {
  core::Buffer b = rt.malloc_system(1 << 12);  // 1024 floats
  sys.host_phase_begin("bounds");
  EXPECT_THROW((runtime::Span<float>{sys, b, mem::Node::kCpu, 1025}),
               std::out_of_range);
  EXPECT_THROW((runtime::Span<float>{sys, b, mem::Node::kCpu, 1000, 25}),
               std::out_of_range);
  {
    runtime::Span<float> whole{sys, b, mem::Node::kCpu, 1024};
    EXPECT_EQ(whole.size(), 0u);
    runtime::Span<float> tail{sys, b, mem::Node::kCpu, 1000, 24};
    EXPECT_EQ(tail.size(), 24u);
  }
  (void)sys.host_phase_end();
  // Inside a launch the runtime records it as cudaErrorInvalidValue.
  EXPECT_THROW(rt.launch("k", 0, [&] { (void)rt.device_span<float>(b, 0, 1025); }),
               std::out_of_range);
  EXPECT_EQ(rt.get_last_error(), Status::kErrorInvalidValue);
}

TEST_F(SpanTest, LockstepLanePastItsSpanThrowsBeforeAccounting) {
  core::Buffer a = rt.malloc_system(1 << 12);
  core::Buffer b = rt.malloc_system(1 << 12);
  sys.host_phase_begin("lanes");
  {
    auto sa = rt.host_span<float>(a);
    auto sb = rt.host_span<float>(b, 0, 512);
    EXPECT_THROW((void)runtime::lockstep<float>({{sa, 0}, {sb, 1, true}}, 512),
                 std::out_of_range);
    EXPECT_THROW((void)sa.load_run(1000, 25), std::out_of_range);
    EXPECT_THROW((void)sb.store_run(513, 0), std::out_of_range);
    (void)sb.store_run(512, 0);  // empty run at the end is in bounds
  }
  const auto& rec = sys.host_phase_end();
  // The throwing calls accounted nothing.
  EXPECT_EQ(rec.traffic.ddr_read_bytes + rec.traffic.ddr_write_bytes, 0u);
}

// --- lockstep vs per-element differential ---------------------------------------

/// One lane of a generated program: which of the phase's Spans it touches,
/// from which element, as a read or a write.
struct LaneSpec {
  std::size_t span = 0;
  std::size_t start = 0;
  bool write = false;
};

/// One kernel (GPU origin) or host phase: a set of Spans over the
/// machine's buffers and one lockstep loop over them.
struct PhaseSpec {
  bool gpu = true;
  std::vector<std::size_t> span_buffer;  ///< buffer index per Span
  std::vector<LaneSpec> lanes;
  std::size_t count = 0;
};

enum class Machine { kExplicit, kSystem, kManagedOversub };

struct Outcome {
  sim::Picos end = 0;
  std::uint64_t digest = 0;
  cache::KernelTraffic traffic;
};

constexpr std::size_t kMaxLanes = 9;
constexpr std::size_t kBuffers = 3;

/// Buffer size per machine: the three managed buffers total 1.5x HBM.
std::uint64_t buffer_bytes(Machine m) {
  return m == Machine::kExplicit ? 1ull << 20 : 4ull << 20;
}

/// The explicit machine's last buffer is pinned host memory, the only one
/// its host phases may touch; the others are cudaMalloc'd.
constexpr std::size_t kPinned = kBuffers - 1;

core::SystemConfig differential_config(Machine m, std::uint64_t page) {
  core::SystemConfig cfg;
  cfg.system_page_size = page;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 96ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.access_counter_migration = true;
  cfg.counter_min_interval = sim::microseconds(5);
  cfg.event_log = true;
  cfg.faults.enabled = true;
  // Pinned allocations fail outright on a denied frame, so the explicit
  // machine runs without denials; it keeps the ECC retirements and the
  // degraded link.
  cfg.faults.frame_alloc_denial_prob = m == Machine::kExplicit ? 0.0 : 0.02;
  cfg.faults.migration_batch_fail_prob = 0.05;
  // The phases start after ~8.1 ms of allocation and context set-up.
  cfg.faults.ecc_events = {{.time = sim::microseconds(8120), .bytes = 1ull << 20},
                           {.time = sim::microseconds(8160), .bytes = 1ull << 20},
                           {.time = sim::microseconds(8300), .bytes = 1ull << 20}};
  cfg.faults.link_degrade = {{.start = sim::microseconds(8130),
                              .duration = sim::microseconds(300),
                              .bandwidth_factor = 4.0,
                              .latency_factor = 2.0}};
  return cfg;
}

template <typename T, std::size_t... I>
void account_lockstep(std::vector<std::unique_ptr<runtime::Span<T>>>& spans,
                      const std::vector<LaneSpec>& lanes, std::size_t count,
                      std::index_sequence<I...>) {
  const runtime::Lane<T> ls[] = {
      {*spans[lanes[I].span], lanes[I].start, lanes[I].write}...};
  (void)runtime::lockstep<T>(ls, count);
}

template <typename T, std::size_t... N>
constexpr auto lockstep_table(std::index_sequence<N...>) {
  using Fn = void (*)(std::vector<std::unique_ptr<runtime::Span<T>>>&,
                      const std::vector<LaneSpec>&, std::size_t);
  return std::array<Fn, sizeof...(N)>{
      +[](std::vector<std::unique_ptr<runtime::Span<T>>>& spans,
          const std::vector<LaneSpec>& lanes, std::size_t count) {
        account_lockstep<T>(spans, lanes, count, std::make_index_sequence<N + 1>{});
      }...};
}

/// Runs \p phases on a fresh machine, accounting each phase's loop either
/// through lockstep() or through the per-element load()/store() loop.
template <typename T>
Outcome run_program(Machine m, std::uint64_t page,
                    const std::vector<PhaseSpec>& phases, bool use_lockstep) {
  static constexpr auto kLockstep =
      lockstep_table<T>(std::make_index_sequence<kMaxLanes>{});
  core::System sys{differential_config(m, page)};
  runtime::Runtime rt{sys};
  sys.ensure_gpu_context();
  std::vector<core::Buffer> bufs;
  for (std::size_t b = 0; b < kBuffers; ++b) {
    const std::uint64_t bytes = buffer_bytes(m);
    if (m == Machine::kExplicit) {
      bufs.push_back(b == kPinned ? rt.malloc_host(bytes) : rt.malloc_device(bytes));
    } else {
      bufs.push_back(m == Machine::kSystem ? rt.malloc_system(bytes)
                                           : rt.malloc_managed(bytes));
    }
  }
  Outcome out;
  for (const PhaseSpec& ph : phases) {
    const mem::Node origin = ph.gpu ? mem::Node::kGpu : mem::Node::kCpu;
    if (ph.gpu) {
      sys.kernel_begin("k");
    } else {
      sys.host_phase_begin("h");
    }
    {
      std::vector<std::unique_ptr<runtime::Span<T>>> spans;
      for (std::size_t b : ph.span_buffer) {
        spans.push_back(std::make_unique<runtime::Span<T>>(sys, bufs[b], origin));
      }
      if (use_lockstep) {
        kLockstep[ph.lanes.size() - 1](spans, ph.lanes, ph.count);
      } else {
        for (std::size_t k = 0; k < ph.count; ++k) {
          for (const LaneSpec& l : ph.lanes) {
            runtime::Span<T>& s = *spans[l.span];
            if (l.write) {
              s.store(l.start + k, T{});
            } else {
              (void)s.load(l.start + k);
            }
          }
        }
      }
    }
    out.traffic += ph.gpu ? sys.kernel_end().traffic : sys.host_phase_end().traffic;
  }
  for (auto& b : bufs) rt.free(b);
  out.end = sys.now();
  out.digest = sys.events().digest(out.end);
  return out;
}

/// Random programs: 1-9 lanes over 1-4 Spans (so lanes often share a
/// Span), lanes on one Span usually a few elements apart (stencil
/// neighbours) and sometimes anywhere, runs long enough to cross pages.
template <typename T>
std::vector<PhaseSpec> random_program(Machine m, std::uint64_t seed,
                                      std::uint64_t page) {
  sim::Rng rng{seed};
  const std::size_t elems = buffer_bytes(m) / sizeof(T);
  const std::size_t per_page = std::max<std::size_t>(1, page / sizeof(T));
  std::vector<PhaseSpec> phases(6);
  for (PhaseSpec& ph : phases) {
    ph.gpu = rng.next_below(4) != 0;
    const std::size_t n_lanes = 1 + rng.next_below(kMaxLanes);
    const std::size_t n_spans = 1 + rng.next_below(std::min<std::size_t>(n_lanes, 4));
    for (std::size_t s = 0; s < n_spans; ++s) {
      const std::size_t b = rng.next_below(kBuffers);
      ph.span_buffer.push_back(m == Machine::kExplicit && !ph.gpu ? kPinned : b);
    }
    ph.count = 1 + rng.next_below(std::min<std::size_t>(2 * per_page + 64, 20'000));
    std::vector<std::size_t> first_start(n_spans, elems);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      LaneSpec lane;
      lane.span = l < n_spans ? l : rng.next_below(n_spans);
      lane.write = rng.next_below(3) == 0;
      const std::size_t limit = elems - ph.count;  // last valid start
      if (first_start[lane.span] != elems && rng.next_below(4) != 0) {
        lane.start = std::min(first_start[lane.span] + rng.next_below(3), limit);
      } else {
        lane.start = rng.next_below(limit + 1);
      }
      if (first_start[lane.span] == elems) first_start[lane.span] = lane.start;
      ph.lanes.push_back(lane);
    }
  }
  return phases;
}

struct Wide {
  unsigned char d[160];  // wider than the 128-byte GPU and 64-byte CPU lines
};
struct Amp16 {
  double re = 0, im = 0;
};

template <typename T>
void expect_lockstep_matches_per_element(std::uint64_t seed) {
  for (const Machine m :
       {Machine::kExplicit, Machine::kSystem, Machine::kManagedOversub}) {
    for (const std::uint64_t page :
         {pagetable::kSystemPage4K, pagetable::kSystemPage64K}) {
      const auto program = random_program<T>(m, seed, page);
      const Outcome ref = run_program<T>(m, page, program, /*use_lockstep=*/false);
      const Outcome got = run_program<T>(m, page, program, /*use_lockstep=*/true);
      SCOPED_TRACE(::testing::Message()
                   << "machine " << static_cast<int>(m) << " page " << page
                   << " elem " << sizeof(T) << " seed " << seed);
      EXPECT_EQ(got.end, ref.end);
      EXPECT_EQ(got.digest, ref.digest);
      EXPECT_EQ(got.traffic, ref.traffic);
    }
  }
}

TEST(LockstepDifferential, MatchesPerElementLoopUnderFaults) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    expect_lockstep_matches_per_element<std::uint8_t>(seed);
    expect_lockstep_matches_per_element<float>(seed);
    expect_lockstep_matches_per_element<Amp16>(seed);
    expect_lockstep_matches_per_element<Wide>(seed);
  }
}

TEST(LockstepDifferential, SwappedLanesChangeTheTimeline) {
  // Negative control: two lanes on different buffers cross into untouched
  // pages at the same element, so their GPU first-touch faults are logged
  // in lane order. A host phase first touches the pages they start on, so
  // the crossing is the only place where their order shows. Listing them
  // the other way round must be visible to the differential check above.
  const std::uint64_t page = pagetable::kSystemPage4K;
  const std::size_t start = page / sizeof(float) - 8;
  PhaseSpec warm;
  warm.gpu = false;
  warm.span_buffer = {0, 1};
  warm.lanes = {{0, start, true}, {1, start, true}};
  warm.count = 1;
  PhaseSpec cross;
  cross.span_buffer = {0, 1};
  cross.lanes = {{0, start, false}, {1, start, true}};
  cross.count = 16;
  PhaseSpec swapped = cross;
  std::swap(swapped.lanes[0], swapped.lanes[1]);
  const Outcome ref = run_program<float>(Machine::kSystem, page, {warm, cross}, false);
  const Outcome same = run_program<float>(Machine::kSystem, page, {warm, cross}, true);
  const Outcome other =
      run_program<float>(Machine::kSystem, page, {warm, swapped}, true);
  EXPECT_EQ(same.end, ref.end);
  EXPECT_EQ(same.digest, ref.digest);
  EXPECT_EQ(same.traffic, ref.traffic);
  EXPECT_NE(other.digest, ref.digest);
}

TEST_F(SpanTest, FlushIsIdempotent) {
  core::Buffer b = rt.malloc_system(1 << 12);
  sys.host_phase_begin("flush");
  {
    auto s = rt.host_span<int>(b);
    s.store(0, 1);
    s.flush();
    s.flush();
    s.store(1, 2);
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_write_bytes, 2u * 64u);  // two page visits, 1 line each
}

}  // namespace
}  // namespace ghum
