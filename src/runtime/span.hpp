#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/system.hpp"

/// \file span.hpp
/// Instrumented typed accessor: application kernels read and write real
/// data through Span<T> while every access is charged to the simulated
/// memory system. A per-span *page cursor* caches the System::resolve()
/// result for the page currently being traversed, so the per-access fast
/// path is a few compares plus a bitmap bit-set; page transitions (and any
/// migration, detected via the machine epoch) re-resolve and flush the
/// aggregated counts through System::commit().
///
/// The line bitmap counts *unique* cachelines touched per page visit,
/// modeling L1/L2 coalescing: dense sweeps are charged their raw byte
/// volume, while sparse/irregular patterns are charged whole cachelines —
/// the read-amplification effect the paper attributes to irregular access
/// patterns.
///
/// Dense multi-stream loops account through lockstep() (below), which
/// charges whole page chunks at once while keeping every commit, resolve,
/// fault and clock advance at the element where a per-element loop would
/// make it.
///
/// Spans must not outlive the kernel/phase they are used in: create them
/// inside the launch body (they flush on destruction).

namespace ghum::runtime {

template <typename T>
class Span;

/// One access stream of a lockstep loop: element k of the loop touches
/// element start + k of \p span, as a read or (if \p write) a write.
template <typename T>
struct Lane {
  Span<T>& span;
  std::size_t start;
  bool write = false;
};

template <typename T, std::size_t N>
std::array<T*, N> lockstep(const Lane<T> (&lanes)[N], std::size_t count);

template <typename T>
class Span {
 public:
  /// Views \p count elements (default: all that remain) starting at
  /// element \p elem_offset of \p buf. Throws std::out_of_range if the
  /// view does not fit inside the buffer.
  Span(core::System& sys, const core::Buffer& buf, mem::Node origin,
       std::uint64_t elem_offset = 0, std::uint64_t count = ~0ull)
      : sys_(&sys), origin_(origin) {
    const std::uint64_t total = buf.bytes / sizeof(T);
    if (elem_offset > total) {
      throw std::out_of_range{"Span: element offset past the end of the buffer"};
    }
    const std::uint64_t avail = total - elem_offset;
    if (count != ~0ull && count > avail) {
      throw std::out_of_range{"Span: element count past the end of the buffer"};
    }
    n_ = count == ~0ull ? avail : count;
    va_ = buf.va + elem_offset * sizeof(T);
    ptr_ = reinterpret_cast<T*>(buf.host) + elem_offset;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& o) = delete;
  Span& operator=(Span&&) = delete;

  ~Span() { flush(); }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Accounted read.
  [[nodiscard]] T load(std::size_t i) {
    touch(i, /*write=*/false);
    return ptr_[i];
  }

  /// Accounted *dependent* read (pointer chase): the next instruction
  /// needs this value, so the access serializes on the full tier latency
  /// instead of pipelining with its neighbours. Use for linked-list /
  /// index-chain traversals.
  [[nodiscard]] T load_chased(std::size_t i) {
    touch(i, /*write=*/false);
    sys_->charge_dependent_access(view_);
    return ptr_[i];
  }

  /// Accounted write.
  void store(std::size_t i, T v) {
    touch(i, /*write=*/true);
    ptr_[i] = v;
  }

  /// Accounted contiguous read of \p count elements starting at \p i,
  /// charged exactly like count load() calls: the one-lane lockstep().
  /// Returns the raw elements for the caller to read.
  [[nodiscard]] const T* load_run(std::size_t i, std::size_t count) {
    return lockstep<T>({{*this, i, false}}, count)[0];
  }

  /// Accounted contiguous write of \p count elements starting at \p i
  /// (bulk analogue of store(); see load_run()). Returns the destination
  /// elements for the caller to fill.
  [[nodiscard]] T* store_run(std::size_t i, std::size_t count) {
    return lockstep<T>({{*this, i, true}}, count)[0];
  }

  /// Accounted read-modify-write access.
  [[nodiscard]] T& mutate(std::size_t i) {
    touch(i, false);
    touch(i, true);
    return ptr_[i];
  }

  /// Remote-capable atomic op on element \p i (cost of a C2C atomic when
  /// the data is on the other side of the link).
  T atomic_exchange(std::size_t i, T v) {
    touch(i, true);
    if (view_.node != origin_) {
      flush();
      sys_->clock().advance(sys_->machine().c2c().atomic_op());
    }
    T old = ptr_[i];
    ptr_[i] = v;
    return old;
  }

  /// Pushes pending aggregated accesses into the memory model.
  void flush() {
    if (pend_acc_ != 0) {
      sys_->commit(view_, pend_r_, pend_w_, pend_lines_, pend_acc_);
      pend_r_ = pend_w_ = pend_lines_ = pend_acc_ = 0;
    }
    // Invalidate so the next access re-resolves.
    view_.page_base = 1;
    view_.page_end = 0;
    view_.run_end = 0;
  }

 private:
  template <typename U, std::size_t N>
  friend std::array<U*, N> lockstep(const Lane<U> (&lanes)[N], std::size_t count);

  /// True if an access at \p addr can be charged to the cached view:
  /// same page, and no residency change since it was resolved.
  [[nodiscard]] bool in_view(std::uint64_t addr) const {
    return addr >= view_.page_base && addr < view_.page_end &&
           sys_->epoch() == view_.epoch;
  }

  void touch(std::size_t i, bool write) {
    const std::uint64_t addr = va_ + i * sizeof(T);
    if (!in_view(addr)) reenter(addr);
    const std::uint64_t line = (addr - view_.page_base) >> line_shift_;
    std::uint64_t& word = bitmap_[line >> 6];
    const std::uint64_t bit = 1ull << (line & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++pend_lines_;
    }
    (write ? pend_w_ : pend_r_) += sizeof(T);
    ++pend_acc_;
  }

  // Out of line so that touch(), the per-element fast path, stays small
  // enough to inline into every load() and store().
  [[gnu::noinline]] void reenter(std::uint64_t addr) {
    if (pend_acc_ != 0) {
      sys_->commit(view_, pend_r_, pend_w_, pend_lines_, pend_acc_);
      pend_r_ = pend_w_ = pend_lines_ = pend_acc_ = 0;
    }
    if (!sys_->advance_view(view_, addr)) {
      view_ = sys_->resolve(addr, origin_);
    }
    line_shift_ = static_cast<unsigned>(std::countr_zero(
        static_cast<std::uint64_t>(view_.line_size)));
    const std::uint64_t lines =
        ((view_.page_end - view_.page_base) + view_.line_size - 1) / view_.line_size;
    bitmap_.assign((lines + 63) / 64, 0);
  }

  /// Number of elements from \p i on that touch() would account on the
  /// current view without re-entering: 0 if element i itself would
  /// re-enter. Elements belong to the page holding their start address,
  /// so one straddling the page end still counts.
  [[nodiscard]] std::size_t room(std::size_t i) const {
    const std::uint64_t addr = va_ + i * sizeof(T);
    if (!in_view(addr)) return 0;
    return static_cast<std::size_t>((view_.page_end - addr + sizeof(T) - 1) /
                                    sizeof(T));
  }

  /// Accounts elements [i, i + count), all within room(i), exactly like
  /// count touch() calls: same raw bytes and accesses, and the same
  /// unique lines, marked word-wise.
  void charge(std::size_t i, std::size_t count, bool write) {
    const std::uint64_t off = va_ + i * sizeof(T) - view_.page_base;
    if (sizeof(T) > view_.line_size) {
      // Wide elements skip lines between consecutive starts: mark exactly
      // the start lines, as touch() does.
      for (std::size_t e = 0; e < count; ++e) {
        const std::uint64_t line = (off + e * sizeof(T)) >> line_shift_;
        std::uint64_t& word = bitmap_[line >> 6];
        const std::uint64_t bit = 1ull << (line & 63);
        pend_lines_ += (word & bit) == 0 ? 1 : 0;
        word |= bit;
      }
    } else {
      // Stride <= line size: the start addresses hit every line in
      // [first, last].
      const std::uint64_t first = off >> line_shift_;
      const std::uint64_t last = (off + (count - 1) * sizeof(T)) >> line_shift_;
      for (std::uint64_t w = first >> 6; w <= (last >> 6); ++w) {
        const std::uint64_t lo = w << 6;
        std::uint64_t mask = ~0ull;
        if (first > lo) mask &= ~0ull << (first - lo);
        if (last < lo + 63) mask &= ~0ull >> (63 - (last - lo));
        std::uint64_t& word = bitmap_[w];
        pend_lines_ += static_cast<std::uint64_t>(std::popcount(mask & ~word));
        word |= mask;
      }
    }
    (write ? pend_w_ : pend_r_) += count * sizeof(T);
    pend_acc_ += count;
  }

  core::System* sys_;
  mem::Node origin_;
  std::uint64_t va_ = 0;
  T* ptr_ = nullptr;
  std::size_t n_ = 0;

  core::PageView view_{};  // starts invalid (page_base=1 > page_end=0)
  unsigned line_shift_ = 6;
  std::vector<std::uint64_t> bitmap_;
  std::uint64_t pend_r_ = 0;
  std::uint64_t pend_w_ = 0;
  std::uint64_t pend_lines_ = 0;
  std::uint64_t pend_acc_ = 0;
};

/// Lockstep accounting: charges \p count elements of a loop whose body
/// touches each lane once per element, in the order \p lanes are listed,
/// exactly as that per-element loop would. The largest chunk in which
/// every lane stays on its current page view (and the residency epoch is
/// unchanged) is charged in bulk; the element where some lane leaves its
/// page runs per-element through touch(), in lane order. Every commit,
/// resolve, fault and clock advance therefore happens at the same element,
/// in the same order, with the same arguments as in the per-element loop.
///
/// Returns each lane's raw elements [start, start + count) for the caller
/// to compute on. Throws std::out_of_range if a lane runs past its Span.
/// If a page resolve throws partway, the caller's computation has not run
/// for any element of this call.
template <typename T, std::size_t N>
std::array<T*, N> lockstep(const Lane<T> (&lanes)[N], std::size_t count) {
  std::array<T*, N> out;
  for (std::size_t l = 0; l < N; ++l) {
    const Lane<T>& lane = lanes[l];
    if (lane.start > lane.span.size() || count > lane.span.size() - lane.start) {
      throw std::out_of_range{"lockstep: lane runs past the end of its span"};
    }
    out[l] = lane.span.ptr_ + lane.start;
  }
  std::size_t k = 0;
  while (k < count) {
    std::size_t chunk = count - k;
    for (const Lane<T>& lane : lanes) {
      const std::size_t room = lane.span.room(lane.start + k);
      if (room < chunk) chunk = room;
    }
    if (chunk == 0) {
      for (const Lane<T>& lane : lanes) lane.span.touch(lane.start + k, lane.write);
      ++k;
      continue;
    }
    for (const Lane<T>& lane : lanes) {
      lane.span.charge(lane.start + k, chunk, lane.write);
    }
    k += chunk;
  }
  return out;
}

}  // namespace ghum::runtime
