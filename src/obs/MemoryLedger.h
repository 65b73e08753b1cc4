//===- obs/MemoryLedger.h - Heap bytes by layer -----------------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A relation's heap, attributed to the layer that holds it, the way
/// traced runs attribute time. Each layer is a live count times an object
/// size, charged at the chunk size the allocator hands out:
///
///  * instances   — node-instance blocks (header, inline key, inline
///                  containers), out-of-line container objects, and
///                  what an empty container holds (a skip list's head,
///                  a copy-on-write map's snapshot header);
///  * entries     — container entries and the bucket arrays that index
///                  them, read from each container's live size and
///                  bucket count (AnyContainer::heapBytes);
///  * locks       — the physical lock stripes inside instance blocks;
///  * versions    — MvccStore versions and their chains;
///  * directories — MvccStore hash heads and secondary-directory links.
///
/// ConcurrentRelation::memoryLedger() fills it; attachMetrics exports the
/// figures of the last such call as the gauge
/// `relation.memory_bytes{layer=...}` (0 before the first call). A
/// snapshot only reads them: the walk that computes them closes the
/// operation gate, which a registry callback must never wait for.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_OBS_MEMORYLEDGER_H
#define CRS_OBS_MEMORYLEDGER_H

#include <cstddef>
#include <cstdint>

namespace crs {
namespace obs {

/// Bytes a malloc-style allocator charges for an \p N-byte request: an
/// 8-byte chunk header, 16-byte granularity, 32-byte minimum (glibc on
/// 64-bit targets).
constexpr size_t heapChunkBytes(size_t N) {
  size_t C = (N + 8 + 15) & ~size_t(15);
  return C < 32 ? 32 : C;
}

/// Heap bytes by layer (see the file comment).
struct MemoryLedger {
  uint64_t Instances = 0;
  uint64_t Entries = 0;
  uint64_t Locks = 0;
  uint64_t Versions = 0;
  uint64_t Directories = 0;

  static constexpr unsigned NumLayers = 5;

  /// The layers in the order above.
  uint64_t layer(unsigned I) const {
    const uint64_t By[NumLayers] = {Instances, Entries, Locks, Versions,
                                    Directories};
    return By[I];
  }

  uint64_t total() const {
    return Instances + Entries + Locks + Versions + Directories;
  }
};

} // namespace obs
} // namespace crs

#endif // CRS_OBS_MEMORYLEDGER_H
