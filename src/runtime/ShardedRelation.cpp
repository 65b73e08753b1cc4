//===- runtime/ShardedRelation.cpp - Hash-partitioned relations ---------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "runtime/ShardedRelation.h"

#include "wal/Wal.h"

#include <algorithm>

using namespace crs;
using detail::PreparedOpImpl;
using detail::ShardedOpImpl;

//===----------------------------------------------------------------------===//
// ShardedRelation
//===----------------------------------------------------------------------===//

ShardedRelation::ShardedRelation(RepresentationConfig Config,
                                 unsigned NumShards, ColumnSet RoutingCols,
                                 CostParams CP)
    : Routing(RoutingCols) {
  assert(NumShards >= 1 && "a sharded relation needs at least one shard");
  assert(Config.Spec && Config.Decomp && Config.Placement &&
         "sharding an empty representation config");
  if (Routing.isEmpty())
    Routing = chooseRoutingColumns(*Config.Spec);
  assert(!Routing.isEmpty() &&
         Config.Spec->allColumns().containsAll(Routing) &&
         "routing columns must be a nonempty subset of the specification");
  Shards.reserve(NumShards);
  for (unsigned I = 0; I < NumShards; ++I) {
    Shards.push_back(std::make_unique<ConcurrentRelation>(Config, CP));
    // Cross-shard transaction scopes acquire in shard-index order; the
    // ordinal lets the debug lock-order validator check that discipline.
    Shards.back()->setLockDomainOrdinal(I);
  }
}

bool ShardedRelation::insert(const Tuple &S, const Tuple &T) {
  // dom(s) must cover the routing set: the put-if-absent check runs on
  // one shard, so tuples agreeing on s must be co-located there.
  assert(S.domain().containsAll(Routing) &&
         "insert dom(s) must cover the routing columns");
  return Shards[shardOf(S)]->insert(S, T);
}

unsigned ShardedRelation::remove(const Tuple &S) {
  if (S.domain().containsAll(Routing))
    return Shards[shardOf(S)]->remove(S);
  // The key misses routing columns: only the shards know where the
  // match lives — run the keyed remove on each (individually atomic).
  // At most one shard matches as long as the alternate key's
  // uniqueness has been respected; shard-local put-if-absent cannot
  // enforce it across shards (see the class comment), so a violated
  // alternate key removes every cross-shard duplicate here.
  unsigned Removed = 0;
  for (auto &Sh : Shards)
    Removed += Sh->remove(S);
  return Removed;
}

std::vector<Tuple> ShardedRelation::query(const Tuple &S, ColumnSet C) const {
  if (S.domain().containsAll(Routing))
    return Shards[shardOf(S)]->query(S, C);
  // Fan-out: π_C projections from different shards can coincide, so the
  // set semantics of query() require a global dedup.
  std::vector<Tuple> Out;
  for (const auto &Sh : Shards) {
    std::vector<Tuple> Part = Sh->query(S, C);
    Out.insert(Out.end(), std::make_move_iterator(Part.begin()),
               std::make_move_iterator(Part.end()));
  }
  std::sort(Out.begin(), Out.end(), TupleLess());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

size_t ShardedRelation::size() const {
  size_t N = 0;
  for (const auto &Sh : Shards)
    N += Sh->size();
  return N;
}

uint64_t ShardedRelation::restarts() const {
  uint64_t N = 0;
  for (const auto &Sh : Shards)
    N += Sh->restarts();
  return N;
}

uint64_t ShardedRelation::planCacheMisses() const {
  uint64_t N = 0;
  for (const auto &Sh : Shards)
    N += Sh->planCacheMisses();
  return N;
}

uint64_t ShardedRelation::planCacheHits() const {
  uint64_t N = 0;
  for (const auto &Sh : Shards)
    N += Sh->planCacheHits();
  return N;
}

void ShardedRelation::attachMetrics(obs::MetricsRegistry &Reg,
                                    const std::string &Name) {
  for (unsigned I = 0; I < numShards(); ++I)
    Shards[I]->attachMetrics(Reg, Name,
                             {{"shard", std::to_string(I)}});
}

OperationCounts ShardedRelation::operationCounts() const {
  OperationCounts Out;
  for (const auto &Sh : Shards) {
    OperationCounts C = Sh->operationCounts();
    Out.Queries += C.Queries;
    Out.Inserts += C.Inserts;
    Out.Removes += C.Removes;
    Out.LockAcquisitions += C.LockAcquisitions;
    Out.LockContentions += C.LockContentions;
  }
  return Out;
}

RelationStatistics ShardedRelation::sampleStatistics() const {
  RelationStatistics Out;
  for (const auto &Sh : Shards)
    Out.accumulate(Sh->sampleStatistics());
  return Out;
}

std::vector<PlanCache::Signature> ShardedRelation::compiledSignatures() const {
  std::vector<PlanCache::Signature> Out;
  for (const auto &Sh : Shards)
    for (const PlanCache::Signature &Sig : Sh->compiledSignatures()) {
      bool Seen = false;
      for (const PlanCache::Signature &Have : Out)
        if (Have.Op == Sig.Op && Have.Dom == Sig.Dom && Have.Out == Sig.Out)
          Seen = true;
      if (!Seen)
        Out.push_back(Sig);
    }
  return Out;
}

MigrationResult ShardedRelation::migrateShard(unsigned I,
                                              RepresentationConfig Target,
                                              MigrationObserver *Obs) {
  assert(I < Shards.size() && "migrating a shard that does not exist");
  return Shards[I]->migrateTo(std::move(Target), Obs);
}

MigrationResult ShardedRelation::migrateTo(RepresentationConfig Target,
                                           MigrationObserver *Obs) {
  MigrationResult Total;
  Total.Ok = true;
  for (size_t I = 0; I < Shards.size(); ++I) {
    // A shard already serving the target (a canary, or a re-issued
    // rollout) keeps its representation: re-migrating it would pay a
    // full dual-write/backfill cycle — and stall its 1/N of the
    // keyspace — for zero semantic change. Names identify
    // representations throughout the tuner/autotuner layer.
    if (!Target.Name.empty() && Shards[I]->config().Name == Target.Name)
      continue;
    MigrationResult R = Shards[I]->migrateTo(Target, Obs);
    if (!R.Ok) {
      // Shard 0's rejection is up-front (nothing touched anywhere); a
      // later shard cannot reject differently on the same target, so a
      // failure here still names its shard for diagnosis.
      R.Error = "shard " + std::to_string(I) + ": " + R.Error;
      return R;
    }
    Total.Backfilled += R.Backfilled;
    Total.MirroredInserts += R.MirroredInserts;
    Total.MirroredRemoves += R.MirroredRemoves;
    Total.DualWriteSeconds += R.DualWriteSeconds;
  }
  return Total;
}

void ShardedRelation::adaptPlans() {
  for (auto &Sh : Shards)
    Sh->adaptPlans();
}

ValidationResult ShardedRelation::verifyConsistency() const {
  ValidationResult Out;
  for (size_t I = 0; I < Shards.size(); ++I) {
    ValidationResult R = Shards[I]->verifyConsistency();
    for (std::string &E : R.Errors)
      Out.Errors.push_back("shard " + std::to_string(I) + ": " + E);
    // Routing placement: every tuple must live on the shard its routing
    // key hashes to, or single-shard operations would miss it.
    for (const Tuple &T : Shards[I]->scanAll())
      if (shardOf(T) != I)
        Out.Errors.push_back("shard " + std::to_string(I) +
                             ": tuple routed to shard " +
                             std::to_string(shardOf(T)) + " stored here");
  }
  // Global functional dependencies. Each shard checks its own FDs, but
  // a dependency whose left side misses the routing columns can be
  // violated *across* shards (shard-local put-if-absent only sees its
  // own keyspace — the classic partitioned-uniqueness gap), and only a
  // merged check catches that. A left side covering the routing set
  // co-locates its agreeing tuples, so those FDs are already fully
  // checked per shard and the quadratic scan is skipped (for the graph
  // spec that is every FD — the common case pays nothing here).
  std::vector<Tuple> All;
  for (const auto &Fd : spec().fds()) {
    if (Fd.Lhs.containsAll(Routing))
      continue;
    if (All.empty())
      All = scanAll();
    for (size_t I = 0; I < All.size(); ++I)
      for (size_t J = I + 1; J < All.size(); ++J)
        if (All[I].project(Fd.Lhs) == All[J].project(Fd.Lhs) &&
            All[I].project(Fd.Rhs) != All[J].project(Fd.Rhs))
          Out.Errors.push_back(
              "cross-shard functional dependency violation");
  }
  return Out;
}

std::vector<Tuple> ShardedRelation::scanAll() const {
  std::vector<Tuple> Out;
  for (const auto &Sh : Shards) {
    std::vector<Tuple> Part = Sh->scanAll();
    Out.insert(Out.end(), std::make_move_iterator(Part.begin()),
               std::make_move_iterator(Part.end()));
  }
  std::sort(Out.begin(), Out.end(), TupleLess());
  return Out;
}

void ShardedRelation::attachWal(WriteAheadLog &Log) {
  assert(Log.partitions() >= numShards() &&
         "the WAL needs one partition per shard");
  for (unsigned I = 0; I < numShards(); ++I)
    Shards[I]->attachWal(Log, /*Partition=*/I, /*Shard=*/I);
}

//===----------------------------------------------------------------------===//
// Sharded prepared operations
//===----------------------------------------------------------------------===//

ShardedOpImpl::ShardedOpImpl(const ShardedRelation &R, PlanOp Op,
                             ColumnSet DomS, ColumnSet Out, bool Mut)
    : Rel(&R) {
  PerShard.reserve(R.Shards.size());
  for (const auto &Sh : R.Shards)
    PerShard.push_back(std::make_shared<PreparedOpImpl>(
        *Sh, Mut ? Sh.get() : nullptr, Op, DomS, Out));
  Staging = PerShard[0].get();
  // All shards share the spec, so every inner impl has the same
  // positional layout; extract the routing slots from it once.
  std::vector<ColumnId> Layout;
  Layout.reserve(Staging->numSlots());
  for (unsigned I = 0; I < Staging->numSlots(); ++I)
    Layout.push_back(Staging->slotColumn(I));
  Route = extractRoutingSlots(Layout, R.Routing);
}

unsigned ShardedOpImpl::shardOfArgs(const Value *Args) const {
  assert(Route.Covered && "routing an operation that must fan out");
  return static_cast<unsigned>(routingHash(Args, Route.Slots) %
                               PerShard.size());
}

unsigned ShardedOpImpl::routedShard() const {
  return shardOfArgs(Staging->frameArgs());
}

uint32_t
ShardedOpImpl::runQuery(function_ref<void(const Tuple &)> Visit) const {
  const Value *Args = Staging->frameArgs();
  if (Route.Covered)
    return PerShard[shardOfArgs(Args)]->runQuery(Args, Visit);
  // Streaming fan-out merge: each shard's execution is atomic and its
  // states stream through the shared visitor before the next shard
  // begins (locks are already released while visiting, so per-shard
  // hold times stay as short as a single-relation query's).
  uint32_t N = 0;
  for (const auto &Impl : PerShard)
    N += Impl->runQuery(Args, Visit);
  return N;
}

bool ShardedOpImpl::runInsert() const {
  const Value *Args = Staging->frameArgs();
  return PerShard[shardOfArgs(Args)]->runInsert(Args);
}

unsigned ShardedOpImpl::runRemove() const {
  const Value *Args = Staging->frameArgs();
  if (Route.Covered)
    return PerShard[shardOfArgs(Args)]->runRemove(Args);
  unsigned Removed = 0;
  for (const auto &Impl : PerShard)
    Removed += Impl->runRemove(Args);
  return Removed;
}

/// Builds a routed BoundOp from inline arguments: hash the routing
/// slots, point the op at that shard's inner impl, and executeBatch's
/// same-handle grouping does the per-shard batching from there.
static BoundOp makeRoutedOp(const ShardedOpImpl &Impl,
                            std::initializer_list<Value> Args,
                            function_ref<void(const Tuple &)> Visit) {
  assert(Args.size() == Impl.numSlots() &&
         "batch op must bind every slot positionally");
  assert(Impl.singleShard() &&
         "a fan-out operation cannot be a single batch op");
  BoundOp B;
  std::copy(Args.begin(), Args.end(), B.Args.begin());
  B.Op = &Impl.shardImpl(Impl.shardOfArgs(B.Args.data()));
  B.Visit = Visit;
  return B;
}

std::vector<Tuple> ShardedQuery::execute() const {
  ColumnSet C = Impl->outputColumns();
  std::vector<Tuple> Out;
  Impl->runQuery([&](const Tuple &T) { Out.push_back(T.project(C)); });
  std::sort(Out.begin(), Out.end(), TupleLess());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

BoundOp ShardedQuery::boundOp(std::initializer_list<Value> Args,
                              function_ref<void(const Tuple &)> Visit) const {
  return makeRoutedOp(*Impl, Args, Visit);
}

BoundOp ShardedInsert::boundOp(std::initializer_list<Value> Args) const {
  return makeRoutedOp(*Impl, Args, nullptr);
}

BoundOp ShardedRemove::boundOp(std::initializer_list<Value> Args) const {
  return makeRoutedOp(*Impl, Args, nullptr);
}

ShardedQuery ShardedRelation::prepareQuery(ColumnSet DomS, ColumnSet C) const {
  return ShardedQuery(std::make_shared<ShardedOpImpl>(
      *this, PlanOp::Query, DomS, C, /*Mut=*/false));
}

ShardedInsert ShardedRelation::prepareInsert(ColumnSet DomS) {
  assert(DomS.containsAll(Routing) &&
         "prepared-insert dom(s) must cover the routing columns "
         "(the put-if-absent check is shard-local)");
  return ShardedInsert(std::make_shared<ShardedOpImpl>(
      *this, PlanOp::Insert, DomS, spec().allColumns(), /*Mut=*/true));
}

ShardedRemove ShardedRelation::prepareRemove(ColumnSet DomS) {
  assert(spec().isKey(DomS) && "remove requires s to be a key (paper §2)");
  return ShardedRemove(std::make_shared<ShardedOpImpl>(
      *this, PlanOp::Remove, DomS, spec().allColumns(), /*Mut=*/true));
}
