//===- runtime/NodeInstance.cpp - Decomposition instances ---------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "runtime/NodeInstance.h"

#include <memory>
#include <mutex>
#include <new>

using namespace crs;

static uint32_t alignUp(size_t N, size_t A) {
  return static_cast<uint32_t>((N + A - 1) / A * A);
}

const InstanceLayout &InstanceLayout::get(
    unsigned KeyArity,
    const std::vector<std::pair<ContainerKind, unsigned>> &Out,
    unsigned Stripes) {
  // Few distinct layouts exist (one per distinct node shape), and they
  // are looked up once per relation per node: a mutex-guarded list that
  // is never freed.
  static std::mutex M;
  static auto *Interned = new std::vector<std::unique_ptr<InstanceLayout>>;
  std::lock_guard<std::mutex> G(M);
  for (const auto &L : *Interned) {
    if (L->KeyArity != KeyArity || L->NumStripes != Stripes ||
        L->Out.size() != Out.size())
      continue;
    bool Same = true;
    for (size_t I = 0; I < Out.size(); ++I)
      Same &= L->Out[I].Kind == Out[I].first && L->Out[I].Arity == Out[I].second;
    if (Same)
      return *L;
  }

  auto L = std::make_unique<InstanceLayout>();
  L->KeyArity = KeyArity;
  L->NumStripes = Stripes;
  size_t Off = sizeof(NodeInstance) + KeyArity * sizeof(Value);
  for (auto [Kind, Arity] : Out) {
    AnyContainer::Shape S = AnyContainer::shape(Kind, Arity);
    size_t Align = S.Inline ? S.Align : alignof(AnyContainer *);
    Off = alignUp(Off, Align);
    L->Out.push_back({Kind, Arity, static_cast<uint32_t>(Off), S.Inline});
    Off += S.Inline ? S.Size : sizeof(AnyContainer *);
  }
  Off = alignUp(Off, alignof(PhysicalLock));
  L->StripeOffset = static_cast<uint32_t>(Off);
  Off += size_t(Stripes) * sizeof(PhysicalLock);
  L->Size = alignUp(Off, alignof(NodeInstance));
  Interned->push_back(std::move(L));
  return *Interned->back();
}

const InstanceLayout &InstanceLayout::forNode(const Decomposition &D,
                                              const LockPlacement &P,
                                              NodeId N) {
  const Decomposition::Node &Node = D.node(N);
  std::vector<std::pair<ContainerKind, unsigned>> Out;
  for (EdgeId E : Node.OutEdges)
    Out.push_back({D.edge(E).Kind, D.edge(E).Cols.size()});
  return get(Node.KeyCols.size(), Out, P.instanceStripes(N));
}

NodeRef NodeInstance::create(const InstanceLayout &L, const Value *Key) {
  static_assert(alignof(Value) <= alignof(NodeInstance) &&
                    alignof(PhysicalLock) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "block parts must fit operator new's alignment");
  char *Block = static_cast<char *>(::operator new(L.Size));
  auto *Inst = new (Block) NodeInstance(L);
  std::uninitialized_copy_n(Key, L.KeyArity,
                            reinterpret_cast<Value *>(Block + sizeof(NodeInstance)));
  // Containers may throw (bad_alloc): undo the ones already built.
  size_t Built = 0;
  try {
    for (; Built < L.Out.size(); ++Built) {
      const InstanceLayout::Slot &S = L.Out[Built];
      if (S.Inline)
        AnyContainer::construct(S.Kind, S.Arity, Block + S.Offset);
      else
        *reinterpret_cast<AnyContainer **>(Block + S.Offset) =
            AnyContainer::create(S.Kind, S.Arity).release();
    }
  } catch (...) {
    destroyParts(Block, L, Built, 0);
    throw;
  }
  auto *Stripes = reinterpret_cast<PhysicalLock *>(Block + L.StripeOffset);
  for (uint32_t I = 0; I < L.NumStripes; ++I)
    new (Stripes + I) PhysicalLock();
  return NodeRef(Inst);
}

void NodeInstance::destroyParts(char *Block, const InstanceLayout &L,
                                size_t Containers, uint32_t Stripes) {
  auto *Locks = reinterpret_cast<PhysicalLock *>(Block + L.StripeOffset);
  for (uint32_t I = Stripes; I-- > 0;)
    Locks[I].~PhysicalLock();
  for (size_t I = Containers; I-- > 0;) {
    const InstanceLayout::Slot &S = L.Out[I];
    if (S.Inline)
      reinterpret_cast<AnyContainer *>(Block + S.Offset)->~AnyContainer();
    else
      delete *reinterpret_cast<AnyContainer **>(Block + S.Offset);
  }
  // Key values are trivially destructible.
  reinterpret_cast<NodeInstance *>(Block)->~NodeInstance();
  ::operator delete(Block);
}

void NodeInstance::destroy(void *P) {
  const InstanceLayout &L = *static_cast<NodeInstance *>(P)->Layout;
  destroyParts(static_cast<char *>(P), L, L.Out.size(), L.NumStripes);
}

bool NodeInstance::allOutEmpty() const {
  for (unsigned I = 0; I < numOut(); ++I)
    if (out(I).size() != 0)
      return false;
  return true;
}
