// A per-run bump allocator for message payloads.
//
// Every send used to heap-allocate a shared_ptr control block plus the
// payload itself and refcount it through the event queue.  Payloads are
// immutable after construction and never outlive their run, so a run-scoped
// arena fits exactly: allocation is a pointer bump into a region, ownership
// is the arena's alone (everyone else holds `const T*`), and the whole
// population dies with the Simulator.  The arena's memory is a list of
// regions threaded through their own headers, so reserving one costs
// exactly one allocation.  Non-trivially-destructible payloads register
// themselves on an intrusive list (its nodes live in the arena too) and are
// destroyed in reverse construction order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace linbound {

class PayloadArena {
 public:
  PayloadArena() = default;
  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;
  ~PayloadArena() { clear(); }

  /// Construct a T inside the arena.  The pointer stays valid for the
  /// arena's lifetime; the arena destroys the object (if it needs it).
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      void* node_mem = allocate(sizeof(DtorNode), alignof(DtorNode));
      auto* node = ::new (node_mem) DtorNode{
          [](void* p) { static_cast<T*>(p)->~T(); }, obj, dtors_};
      dtors_ = node;
    }
    ++objects_;
    return obj;
  }

  std::size_t objects() const { return objects_; }

  /// Make `bytes` of payload space available in one allocation: unless the
  /// current bump region already has that much left, a fresh region of
  /// exactly `bytes` becomes the one the bump allocator draws from.  The
  /// arena grows monotonically for a run's lifetime, so covering the whole
  /// run's payload volume here is what makes the steady-state send path
  /// allocation-free.  The region's pages are touched only as payloads
  /// reach them.  A region that runs out falls back to 64 KiB regions, and
  /// oversized requests (> 64 KiB) get a dedicated one.
  void reserve_bytes(std::size_t bytes) {
    if (static_cast<std::size_t>(end_ - cur_) >= bytes) return;
    cur_ = new_region(bytes);
    end_ = cur_ + bytes;
  }

  /// Destroy everything and release the regions (also run by the dtor).
  void clear() {
    for (DtorNode* n = dtors_; n != nullptr; n = n->next) n->destroy(n->obj);
    dtors_ = nullptr;
    while (regions_ != nullptr) {
      Region* prev = regions_->prev;
      ::operator delete(regions_);
      regions_ = prev;
    }
    cur_ = end_ = nullptr;
    objects_ = 0;
  }

 private:
  static constexpr std::size_t kChunkSize = 64 * 1024;

  struct DtorNode {
    void (*destroy)(void*);
    void* obj;
    DtorNode* next;
  };

  /// Header of every region; the payload bytes follow it, max-aligned.
  struct alignas(alignof(std::max_align_t)) Region {
    Region* prev;
  };

  /// Allocate a region with `bytes` of payload space, link it, return its
  /// first payload byte.
  char* new_region(std::size_t bytes) {
    auto* region = static_cast<Region*>(::operator new(sizeof(Region) + bytes));
    region->prev = regions_;
    regions_ = region;
    return reinterpret_cast<char*>(region + 1);
  }

  void* allocate(std::size_t size, std::size_t align) {
    // Oversized requests get a dedicated region; the common case bumps the
    // current region's cursor.
    if (size + align > kChunkSize) {
      return align_ptr(new_region(size + align), align);
    }
    char* aligned = align_ptr(cur_, align);
    const auto pad = static_cast<std::size_t>(aligned - cur_);
    if (static_cast<std::size_t>(end_ - cur_) < pad + size) {
      cur_ = new_region(kChunkSize);
      end_ = cur_ + kChunkSize;
      aligned = align_ptr(cur_, align);
    }
    cur_ = aligned + size;
    return aligned;
  }

  static char* align_ptr(char* p, std::size_t align) {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t aligned = (addr + align - 1) & ~(align - 1);
    return p + (aligned - addr);
  }

  Region* regions_ = nullptr;  ///< newest region; each links its predecessor
  char* cur_ = nullptr;        ///< bump cursor in the current region
  char* end_ = nullptr;        ///< end of the current region
  std::size_t objects_ = 0;
  DtorNode* dtors_ = nullptr;
};

}  // namespace linbound
