//===- runtime/AnyContainer.cpp - Type-erased edge containers -----------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "runtime/AnyContainer.h"

#include "containers/ConcurrentHashMap.h"
#include "containers/ConcurrentSkipListMap.h"
#include "containers/CowArrayMap.h"
#include "containers/HashMap.h"
#include "containers/SingletonCell.h"
#include "containers/TreeMap.h"
#include "decomp/Decomposition.h"
#include "obs/MemoryLedger.h"
#include "runtime/NodeInstance.h"
#include "support/Compiler.h"

#include <algorithm>
#include <new>
#include <type_traits>

using namespace crs;

namespace {

/// Inline objects up to this size; larger containers live behind a
/// pointer so instances that hold them stay small when empty.
constexpr size_t MaxInlineBytes = 256;

/// Adapter around one container template instantiated with N-value keys
/// and owning instance references.
template <template <unsigned> class MapOf, ContainerKind K, unsigned N>
class ContainerAdapter final : public AnyContainer {
  using Key = ValueKey<N>;
  MapOf<N> Map;

  static Key keyOf(const Value *V) {
    Key R;
    std::copy_n(V, N, R.V);
    return R;
  }

public:
  NodeInstance *lookup(const Value *V) const override {
    if constexpr (K == ContainerKind::CowArrayMap) {
      // Snapshot entries are not epoch-retired: copy the reference out.
      NodeRef Out;
      return Map.lookup(keyOf(V), Out) ? Out.get() : nullptr;
    } else {
      const NodeRef *P = Map.find(keyOf(V));
      return P ? P->get() : nullptr;
    }
  }
  bool insertOrAssign(const Value *V, NodeInstance *Val) override {
    return Map.insertOrAssign(keyOf(V), NodeRef(Val));
  }
  bool erase(const Value *V) override { return Map.erase(keyOf(V)); }
  void scan(function_ref<bool(const Value *, NodeInstance *)> Visit)
      const override {
    Map.scan([&](const Key &At, const NodeRef &Val) {
      return Visit(At.V, Val.get());
    });
  }
  size_t size() const override { return Map.size(); }
  ContainerKind kind() const override { return K; }

  HeapBytes heapBytes() const override {
    using obs::heapChunkBytes;
    const size_t Entries = Map.size();
    constexpr size_t Link = sizeof(void *);
    if constexpr (K == ContainerKind::ConcurrentSkipListMap) {
      // TopLevel t < MaxLevel is drawn with probability 2^-(t+1), and
      // MaxLevel with the remaining 2^-MaxLevel.
      constexpr int Max = MapOf<N>::MaxLevel;
      double Mean = heapChunkBytes(MapOf<N>::entryBytes(Max)) /
                    double(1ull << Max);
      for (int T = 0; T < Max; ++T)
        Mean += heapChunkBytes(MapOf<N>::entryBytes(T)) / double(2ull << T);
      return {size_t(Mean * Entries),
              heapChunkBytes(MapOf<N>::entryBytes(Max))};
    } else if constexpr (K == ContainerKind::ConcurrentHashMap) {
      using Table = GrowableHashTable<int>;
      return {Entries * heapChunkBytes(MapOf<N>::entryBytes()) +
                  heapChunkBytes(Map.buckets() * Link),
              heapChunkBytes(sizeof(typename Table::Heads))};
    } else if constexpr (K == ContainerKind::HashMap) {
      return {Entries * heapChunkBytes(MapOf<N>::entryBytes()) +
                  heapChunkBytes(Map.buckets() * Link),
              0};
    } else if constexpr (K == ContainerKind::CowArrayMap) {
      // One make_shared block: control block and vector header.
      size_t Array = Map.capacity() * MapOf<N>::entryBytes();
      return {Array ? heapChunkBytes(Array) : 0, heapChunkBytes(5 * Link)};
    } else {
      return {Entries * heapChunkBytes(MapOf<N>::entryBytes()), 0};
    }
  }
};

template <unsigned N>
using HashMapOf = HashMap<ValueKey<N>, NodeRef, ValueKeyHash>;
template <unsigned N>
using TreeMapOf = TreeMap<ValueKey<N>, NodeRef, ValueKeyLess>;
template <unsigned N>
using ConcurrentHashMapOf = ConcurrentHashMap<ValueKey<N>, NodeRef, ValueKeyHash>;
template <unsigned N>
using ConcurrentSkipListMapOf =
    ConcurrentSkipListMap<ValueKey<N>, NodeRef, ValueKeyLess>;
template <unsigned N>
using CowArrayMapOf = CowArrayMap<ValueKey<N>, NodeRef, ValueKeyLess>;
template <unsigned N> using SingletonCellOf = SingletonCell<ValueKey<N>, NodeRef>;

/// Calls \p F with the adapter type for (\p Kind, paddedArity(Arity)).
template <typename Fn> auto withAdapter(ContainerKind Kind, unsigned Arity, Fn F) {
  auto ForArity = [&](auto Tag) {
    constexpr unsigned N = decltype(Tag)::value;
    switch (Kind) {
    case ContainerKind::HashMap:
      return F(static_cast<ContainerAdapter<HashMapOf, ContainerKind::HashMap, N> *>(nullptr));
    case ContainerKind::TreeMap:
      return F(static_cast<ContainerAdapter<TreeMapOf, ContainerKind::TreeMap, N> *>(nullptr));
    case ContainerKind::ConcurrentHashMap:
      return F(static_cast<ContainerAdapter<ConcurrentHashMapOf,
                                            ContainerKind::ConcurrentHashMap, N> *>(
          nullptr));
    case ContainerKind::ConcurrentSkipListMap:
      return F(static_cast<ContainerAdapter<ConcurrentSkipListMapOf,
                                            ContainerKind::ConcurrentSkipListMap, N> *>(
          nullptr));
    case ContainerKind::CowArrayMap:
      return F(static_cast<ContainerAdapter<CowArrayMapOf, ContainerKind::CowArrayMap, N> *>(
          nullptr));
    case ContainerKind::SingletonCell:
      return F(static_cast<ContainerAdapter<SingletonCellOf, ContainerKind::SingletonCell, N> *>(
          nullptr));
    }
    crs_unreachable("unknown container kind");
  };
  // Keys are fixed-width stack and entry buffers: never build a wider
  // one, whatever the build type (adequacy rejects such edges first).
  if (Arity > Decomposition::MaxEdgeColumns)
    crs_unreachable("edge binds more columns than a container key holds");
  switch (AnyContainer::paddedArity(Arity)) {
  case 1:
    return ForArity(std::integral_constant<unsigned, 1>());
  case 2:
    return ForArity(std::integral_constant<unsigned, 2>());
  case 4:
    return ForArity(std::integral_constant<unsigned, 4>());
  default:
    return ForArity(std::integral_constant<unsigned, 8>());
  }
}

} // namespace

AnyContainer::Shape AnyContainer::shape(ContainerKind Kind, unsigned Arity) {
  return withAdapter(Kind, Arity, [](auto *Tag) {
    using A = std::remove_pointer_t<decltype(Tag)>;
    return Shape{sizeof(A), alignof(A),
                 sizeof(A) <= MaxInlineBytes &&
                     alignof(A) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__};
  });
}

AnyContainer *AnyContainer::construct(ContainerKind Kind, unsigned Arity,
                                      void *Where) {
  return withAdapter(Kind, Arity, [&](auto *Tag) -> AnyContainer * {
    using A = std::remove_pointer_t<decltype(Tag)>;
    return new (Where) A();
  });
}

std::unique_ptr<AnyContainer> AnyContainer::create(ContainerKind Kind,
                                                   unsigned Arity) {
  return withAdapter(Kind, Arity, [](auto *Tag) -> std::unique_ptr<AnyContainer> {
    using A = std::remove_pointer_t<decltype(Tag)>;
    return std::make_unique<A>();
  });
}
