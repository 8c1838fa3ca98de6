#include "pagetable/tlb.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace ghum::pagetable {

namespace {
// Slots allocated by the first insert; storage doubles from there.
constexpr std::size_t kMinSlots = 16;
}  // namespace

Tlb::Tlb(std::size_t capacity) : capacity_(capacity) {
  if (capacity > kMaxCapacity) {
    throw std::length_error{"Tlb: capacity exceeds 2^30 entries"};
  }
}

std::uint32_t Tlb::find_pos(std::uint64_t vpn) const noexcept {
  if (size_ == 0) return kNil;
  const Slot* slots = slots_ptr();
  const std::uint32_t* index = index_ptr();
  for (std::uint32_t pos = home(vpn);; pos = (pos + 1) & mask_) {
    const std::uint32_t e = index[pos];
    if (e == 0) return kNil;
    if (slots[e - 1].vpn == vpn) return pos;
  }
}

void Tlb::index_slot(std::uint32_t s) noexcept {
  std::uint32_t* index = index_ptr();
  std::uint32_t pos = home(slots_ptr()[s].vpn);
  while (index[pos] != 0) pos = (pos + 1) & mask_;
  index[pos] = s + 1;
}

void Tlb::erase_pos(std::uint32_t pos) noexcept {
  const Slot* slots = slots_ptr();
  std::uint32_t* index = index_ptr();
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless that would move it before its home position.
  std::uint32_t hole = pos;
  for (std::uint32_t j = (pos + 1) & mask_; index[j] != 0; j = (j + 1) & mask_) {
    const std::uint32_t h = home(slots[index[j] - 1].vpn);
    if (((j - h) & mask_) >= ((j - hole) & mask_)) {
      index[hole] = index[j];
      hole = j;
    }
  }
  index[hole] = 0;
}

void Tlb::remove_at(std::uint32_t pos) noexcept {
  const std::uint32_t s = index_ptr()[pos] - 1;
  erase_pos(pos);
  unlink(s);
  slots_ptr()[s].next = free_;
  free_ = s;
  --size_;
}

void Tlb::unlink(std::uint32_t s) noexcept {
  Slot* slots = slots_ptr();
  const Slot& e = slots[s];
  if (e.prev != kNil) {
    slots[e.prev].next = e.next;
  } else {
    head_ = e.next;
  }
  if (e.next != kNil) {
    slots[e.next].prev = e.prev;
  } else {
    tail_ = e.prev;
  }
}

void Tlb::link_front(std::uint32_t s) noexcept {
  Slot* slots = slots_ptr();
  slots[s].prev = kNil;
  slots[s].next = head_;
  if (head_ != kNil) {
    slots[head_].prev = s;
  } else {
    tail_ = s;
  }
  head_ = s;
}

std::uint32_t Tlb::take_slot() {
  if (free_ != kNil) {
    const std::uint32_t s = free_;
    free_ = slots_ptr()[s].next;
    return s;
  }
  if (used_ == slot_cap_) grow();
  return used_++;
}

void Tlb::grow() {
  const auto cap = static_cast<std::uint32_t>(
      std::min(capacity_, std::max(kMinSlots, std::size_t{slot_cap_} * 2)));
  const std::size_t index_size = std::bit_ceil(std::size_t{cap} * 2);
  const std::size_t index_at = cap * sizeof(Slot);
  const std::size_t nodes_at = index_at + index_size * sizeof(std::uint32_t);
  auto storage = std::make_unique_for_overwrite<std::byte[]>(nodes_at + cap);
  if (used_ > 0) {
    std::memcpy(storage.get(), storage_.get(), used_ * sizeof(Slot));
    std::memcpy(storage.get() + nodes_at, nodes_ptr(), used_);
  }
  std::memset(storage.get() + index_at, 0, index_size * sizeof(std::uint32_t));
  storage_ = std::move(storage);
  slot_cap_ = cap;
  mask_ = static_cast<std::uint32_t>(index_size - 1);
  shift_ = 64 - std::countr_zero(index_size);
  for (std::uint32_t s = head_; s != kNil; s = slots_ptr()[s].next) index_slot(s);
}

std::optional<mem::Node> Tlb::lookup(std::uint64_t vpn) {
  const std::uint32_t pos = find_pos(vpn);
  if (pos == kNil) {
    ++misses_;
    if (misses_ctr_ != nullptr) misses_ctr_->inc();
    return std::nullopt;
  }
  ++hits_;
  if (hits_ctr_ != nullptr) hits_ctr_->inc();
  const std::uint32_t s = index_ptr()[pos] - 1;
  if (s != head_) {
    unlink(s);
    link_front(s);
  }
  return nodes_ptr()[s];
}

void Tlb::insert(std::uint64_t vpn, mem::Node node) {
  // A zero-capacity TLB caches nothing (no-TLB ablation): without this
  // guard the evict-then-insert below would still insert, making
  // capacity 0 behave as a size-1 cache and under-charging page walks.
  if (capacity_ == 0) return;
  const std::uint32_t pos = find_pos(vpn);
  if (pos != kNil) {
    const std::uint32_t s = index_ptr()[pos] - 1;
    nodes_ptr()[s] = node;
    if (s != head_) {
      unlink(s);
      link_front(s);
    }
    return;
  }
  std::uint32_t s;
  if (size_ >= capacity_) {
    // Evict the LRU entry and reuse its slot in place.
    s = tail_;
    erase_pos(find_pos(slots_ptr()[s].vpn));
    unlink(s);
    --size_;
  } else {
    s = take_slot();
  }
  slots_ptr()[s].vpn = vpn;
  nodes_ptr()[s] = node;
  link_front(s);
  index_slot(s);
  ++size_;
}

bool Tlb::append_lru(std::uint64_t vpn, mem::Node node) {
  if (size_ >= capacity_ || find_pos(vpn) != kNil) return false;
  const std::uint32_t s = take_slot();
  Slot* slots = slots_ptr();
  slots[s].vpn = vpn;
  nodes_ptr()[s] = node;
  slots[s].prev = tail_;
  slots[s].next = kNil;
  if (tail_ != kNil) {
    slots[tail_].next = s;
  } else {
    head_ = s;
  }
  tail_ = s;
  index_slot(s);
  ++size_;
  return true;
}

void Tlb::invalidate(std::uint64_t vpn) {
  const std::uint32_t pos = find_pos(vpn);
  if (pos != kNil) remove_at(pos);
}

void Tlb::invalidate_range(std::uint64_t first, std::uint64_t last) {
  if (first >= last || size_ == 0) return;
  const Slot* slots = slots_ptr();
  for (std::uint32_t s = head_; s != kNil;) {
    const std::uint32_t next = slots[s].next;
    if (slots[s].vpn >= first && slots[s].vpn < last) {
      remove_at(find_pos(slots[s].vpn));
    }
    s = next;
  }
}

void Tlb::flush() {
  size_ = 0;
  used_ = 0;
  head_ = tail_ = free_ = kNil;
  if (storage_) {
    std::memset(index_ptr(), 0, (std::size_t{mask_} + 1) * sizeof(std::uint32_t));
  }
}

}  // namespace ghum::pagetable
