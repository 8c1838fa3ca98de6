#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "mem/node.hpp"
#include "obs/metrics.hpp"

/// \file tlb.hpp
/// A fully-associative LRU translation lookaside buffer. Grace Hopper has
/// several translation caches (CPU core TLBs, SMMU TLBs/TBU, GPU uTLBs);
/// we model each as one capacity-bounded LRU cache keyed by virtual page
/// number. A TLB hit avoids the page-walk cost; migration and unmapping
/// invalidate entries (TLB shootdown costs are charged by the cost model).
///
/// The structure is built for the streaming sweep: a page-by-page pass over
/// a footprint far larger than the TLB misses on every page, so every
/// insert also evicts. Nothing on that path allocates:
///  - entries live in one contiguous slot array, `{vpn, prev, next}` plus a
///    parallel residency byte, doubly linked MRU -> LRU by 32-bit slot
///    indices; an eviction reuses the LRU slot in place, invalidated slots
///    go on a free chain;
///  - a power-of-two open-addressed index maps a VPN to `slot + 1` (0 is
///    empty) with Fibonacci hashing and linear probing, kept at most half
///    full. Deletion shifts the following probe run back instead of
///    leaving tombstones, so a sweep that deletes and inserts once per page
///    forever keeps probe lengths at their steady-state load.
/// Slots, index and residency bytes share one allocation, grown by doubling
/// with occupancy up to `capacity` — a TLB that only ever caches a few pages
/// stays small. After that `insert` never allocates; `lookup`, `invalidate`
/// and `invalidate_range` never do.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::pagetable {

class Tlb {
 public:
  /// Largest capacity: slot indices and index positions are 32-bit, the
  /// index holds up to twice the slots, and UINT32_MAX is reserved as "no
  /// slot / no position".
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 30;

  /// Throws std::length_error if \p capacity exceeds kMaxCapacity.
  explicit Tlb(std::size_t capacity);

  /// Looks up a VPN; refreshes LRU position on hit.
  [[nodiscard]] std::optional<mem::Node> lookup(std::uint64_t vpn);

  /// Inserts (or refreshes) a translation, evicting LRU when full.
  void insert(std::uint64_t vpn, mem::Node node);

  /// Invalidates one VPN (no-op if absent).
  void invalidate(std::uint64_t vpn);

  /// Invalidates every cached VPN in [first, last): one walk over the
  /// bounded LRU list instead of one hash erase per page, so bulk unmap /
  /// migration splices cost O(TLB entries), not O(pages).
  void invalidate_range(std::uint64_t first, std::uint64_t last);

  /// Invalidates everything (full shootdown). Keeps the storage.
  void flush();

  /// Calls visit(vpn, node) for every entry, most to least recent.
  template <class Visitor>
  void for_each_mru(Visitor&& visit) const {
    if (size_ == 0) return;  // possibly no storage yet
    const Slot* slots = slots_ptr();
    const mem::Node* nodes = nodes_ptr();
    for (std::uint32_t s = head_; s != kNil; s = slots[s].next) {
      visit(slots[s].vpn, nodes[s]);
    }
  }

  /// Appends a translation at the LRU end without counting a hit or miss:
  /// checkpoint restore replays for_each_mru()'s order through this.
  /// Returns false, changing nothing, if the TLB is full or already holds
  /// \p vpn.
  [[nodiscard]] bool append_lru(std::uint64_t vpn, mem::Node node);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

  /// Mirrors hit/miss counts into registry counters (obs subsystem). Bound
  /// once by core::Machine; nullptr (the default) means unobserved.
  void bind_metrics(obs::Counter* hits, obs::Counter* misses) noexcept {
    hits_ctr_ = hits;
    misses_ctr_ = misses;
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct Slot {
    std::uint64_t vpn;
    std::uint32_t prev;  // towards MRU
    std::uint32_t next;  // towards LRU; free-chain link for free slots
  };

  // storage_ holds slot_cap_ Slots, then (mask_ + 1) index words, then
  // slot_cap_ node bytes (slot s's residency is nodes_ptr()[s]). Keeping the
  // node out of the slot makes it 16 bytes: a full 4096-entry TLB is 100 KiB,
  // under glibc's 128 KiB mmap threshold, whose raising on free would
  // otherwise inflate the heap of a process that builds and drops machines.
  [[nodiscard]] Slot* slots_ptr() const noexcept {
    return reinterpret_cast<Slot*>(storage_.get());
  }
  [[nodiscard]] std::uint32_t* index_ptr() const noexcept {
    return reinterpret_cast<std::uint32_t*>(storage_.get() +
                                            std::size_t{slot_cap_} * sizeof(Slot));
  }
  [[nodiscard]] mem::Node* nodes_ptr() const noexcept {
    return reinterpret_cast<mem::Node*>(index_ptr() + (std::size_t{mask_} + 1));
  }
  [[nodiscard]] std::uint32_t home(std::uint64_t vpn) const noexcept {
    return static_cast<std::uint32_t>((vpn * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// Index position holding \p vpn, or kNil.
  [[nodiscard]] std::uint32_t find_pos(std::uint64_t vpn) const noexcept;
  /// Indexes slot \p s (its vpn must be absent from the index).
  void index_slot(std::uint32_t s) noexcept;
  /// Empties index position \p pos, shifting its probe run back.
  void erase_pos(std::uint32_t pos) noexcept;
  /// Removes the entry at index position \p pos from the cache.
  void remove_at(std::uint32_t pos) noexcept;
  void unlink(std::uint32_t s) noexcept;
  void link_front(std::uint32_t s) noexcept;
  /// A free slot, growing the storage if every allocated slot is in use.
  /// Never indexes: the caller fills and indexes the slot exactly once.
  std::uint32_t take_slot();
  void grow();

  std::size_t capacity_;
  std::unique_ptr<std::byte[]> storage_;
  std::uint32_t slot_cap_ = 0;  // slots allocated
  std::uint32_t used_ = 0;      // slots [0, used_) have been handed out
  std::uint32_t size_ = 0;
  std::uint32_t head_ = kNil;  // MRU
  std::uint32_t tail_ = kNil;  // LRU
  std::uint32_t free_ = kNil;  // chain of invalidated slots
  std::uint32_t mask_ = 0;     // index size - 1
  int shift_ = 64;             // 64 - log2(index size)
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  obs::Counter* hits_ctr_ = nullptr;
  obs::Counter* misses_ctr_ = nullptr;

  // Restore reinstates hits_/misses_ without touching the bound registry
  // counters (those are restored with the registry itself, avoiding double
  // counting); the entries go through for_each_mru()/append_lru().
  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::pagetable
