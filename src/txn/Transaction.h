//===- txn/Transaction.h - Serializable multi-operation scopes --*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-operation transactions over synthesized relations. The paper
/// makes every single operation two-phase and globally lock-ordered
/// (§4.2, §5.1); this subsystem generalizes those per-operation lock
/// scopes into *transaction* scopes, so a client can make several
/// operations atomic — a scheduler moving a process between CPUs, a
/// transfer debiting one row and crediting another — with no visible
/// intermediate state:
///
///   Transaction T(Rel);
///   T.remove(Rem, {Value::ofInt(From), Value::ofInt(0)}, &Removed);
///   T.insert(Ins, {Value::ofInt(From), Value::ofInt(0),
///                  Value::ofInt(Bal - X)}, &Won);
///   ...
///   if (!T.commit()) retry;
///
/// **Writes: strict two-phase locking.** Every mutation executes
/// through the shared plan executor on a transaction-owned execution
/// context whose lock set is *retained* until commit or abort. At
/// commit the scope stamps one sequence from the commit clock (inside a
/// beginCommit/endCommit registry window) and, still under every
/// retained lock, installs a committed version of each effect into the
/// relation's MVCC store (txn/MvccStore.h) and appends the WAL record.
///
/// **Reads: MVCC snapshots.** A scope picks a snapshot sequence when it
/// opens (sync/CommitClock.h::acquireSnapshotSlot: the commit clock,
/// once every commit at or below it has finished installing, so a scope
/// always sees every commit acknowledged before it opened) and query()
/// reads the version store at that snapshot — a consistent view across every
/// query in the scope, across relations and shards, with **zero lock
/// acquisitions**, no plan, and no gate: a read-only scope touches no
/// shared line of the representation at all. The scope's own
/// uncommitted writes overlay the snapshot (you read your own effects;
/// removed keys disappear, inserted tuples appear). The consistency
/// class is snapshot isolation: queries never see anomalies within the
/// scope (no non-repeatable reads, no read skew), but a key read by
/// query() and written on the evidence of that read is not locked —
/// use queryForUpdate(), which keeps the PR 5 exclusive-locking read
/// (PlanOp::QueryForUpdate plans) for read-modify-write: its read set
/// is 2PL-locked, so lost updates are impossible. Phantoms: query()
/// sees exactly the committed-at-snapshot membership plus its own
/// writes; a predicate a scope wants stable against concurrent inserts
/// must be covered by queryForUpdate (documented and asserted in
/// tests/txn_mvcc_test.cpp).
///
/// **Deadlock freedom.** Within one op the planner emits locks in the
/// global order (§5.1). Across chained ops the scope's high-water key
/// can exceed a later op's keys, so the executor splits acquisitions:
/// in-order requests wait (safe: such a wait is always at or above
/// everything the scope holds), out-of-order requests go through the
/// try path and a failure restarts the op — after a bounded number of
/// failed tries the transaction *dies* (aborts, rolls back, reports
/// Conflict) rather than ever waiting out of order. This is a bounded
/// wait-die discipline: waiting edges respect a total order (acyclic),
/// try edges never wait, so no cycle can form; fairness comes from
/// aging — runTransaction retries a died scope with growing patience,
/// so old logical transactions eventually outlast young ones. An
/// in-order wait repeats the try rather than blocking in the mutex,
/// and a scope that finds an older scope holding the lock dies at once:
/// a younger scope blocked in the mutex could not be aborted, and an
/// older one spinning out of order on a lock it held died and retook
/// its locks, over and over, faster than the blocked thread woke. Every
/// such retry loop, and runTransaction between attempts, is paced by
/// one sync/Backoff (spin, yield, then sleeps capped at 1 ms): pacing
/// sets how long a waiter sleeps, never whether it dies, so the bounds
/// above still end each wait. The debug-build sync/LockOrderValidator
/// asserts the cross-op and cross-shard discipline on every waiting
/// acquisition.
///
/// **Rollback.** Every committed mutation in the scope appends an undo
/// record (operation kind + full tuple); abort replays *inverse
/// mutation plans* — PlanOp::UndoInsert (a full-tuple-keyed remove) and
/// PlanOp::UndoRemove (a put-if-absent re-insert) — newest first, on
/// the same retained-lock context, so rollback is exact and invisible:
/// no other transaction can observe, or conflict with, a state the
/// abort is about to erase (the locks never dropped).
///
/// **Migration integration.** The scope enters the relation's
/// operation gate lazily, at its first lock-taking operation, and holds
/// it until finish — so a migration flip (runtime/Migration.h) is
/// atomic with respect to every transaction that *writes* (it drains
/// them, never lands mid-scope), while a read-only scope holds no gate
/// at all: a migration can begin and complete under an open snapshot
/// scope, whose reads — served by the identity-keyed version store, not
/// the decomposition — see the same snapshot before and after the swap.
/// During a dual-write phase the
/// scope's MirrorWrite epilogues are buffered in the transaction frame
/// and flushed to the shadow at commit (locks still held); aborts
/// discard the buffer, so the shadow never sees a rolled-back write.
/// If adaptPlans() retires the scope's plans mid-flight (the epoch
/// moves), the next operation aborts the scope with EpochChange and the
/// client retries — prepared-handle rebinding inside a live scope would
/// mix plan regimes.
///
/// **Cross-shard scopes.** ShardedTransaction lazily opens one inner
/// scope per touched shard. Joining a shard *above* every shard already
/// held keeps the (shard, key) order and may block; joining below must
/// not (gate entry is bounded, every acquisition forced onto the try
/// path), so cross-shard deadlocks are impossible by the same argument,
/// with the shard index as the major key. A single-shard transaction
/// creates one inner scope and pays no coordination at commit; a
/// cross-shard commit stamps one commit sequence number, flushes and
/// releases shard by shard — atomicity for locking observers follows
/// from 2PL (every touched key stays exclusively locked until that
/// shard releases), and atomicity for snapshot readers from the commit
/// registry: the whole multi-shard install happens inside one
/// beginCommit/endCommit window, so no snapshot at or above the
/// sequence is handed out until every shard's versions are in place.
///
/// Threading rules: a transaction belongs to the thread that opened it;
/// one scope open per thread at a time; while it is open, do not
/// operate on relations outside the scope from that thread (the scope
/// holds locks — an outside operation could self-deadlock); handles and
/// relations must outlive the scope. Query visitors run with locks held
/// and must not execute relation operations.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_TXN_TRANSACTION_H
#define CRS_TXN_TRANSACTION_H

#include "runtime/PreparedOp.h"
#include "runtime/ShardedRelation.h"
#include "sync/Backoff.h"
#include "txn/MvccStore.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace crs {

/// Lifecycle of a transaction scope.
enum class TxnState : uint8_t {
  Open,      ///< accepting operations
  Committed, ///< effects durable and visible; locks released
  Aborted,   ///< effects rolled back exactly; locks released
};

/// Why a scope aborted (state() == Aborted).
enum class TxnAbortCause : uint8_t {
  None,        ///< not aborted
  Conflict,    ///< wait-die: an out-of-order acquisition stayed blocked
  Upgrade,     ///< a shared→exclusive escalation was required (misuse)
  EpochChange, ///< adaptPlans() retired the scope's plans mid-flight
  GateBusy,    ///< a cross-shard join timed out on a closed gate
  User,        ///< abort() or destruction of an open scope
};

/// A serializable multi-operation scope over one ConcurrentRelation.
/// Non-copyable, non-movable; see the file comment for the contract.
class Transaction {
public:
  /// Opens a scope on \p R: acquires the scope's read snapshot (every
  /// query() in the scope reads this one commit-clock prefix) and
  /// registers it with the reclamation watermark. The operation gate is
  /// entered lazily by the first lock-taking operation, so a read-only
  /// scope never touches it. \p Patience scales the bounded wait-die
  /// try budget —
  /// pass the retry attempt number (as runTransaction does) so aging
  /// scopes win contended keys eventually. \p Birth carries a birth
  /// stamp across retries of the same logical transaction (0 stamps a
  /// fresh one): wait-die compares these stamps, so a retried scope
  /// keeps its seniority instead of rejoining the queue as a newborn.
  explicit Transaction(ConcurrentRelation &R, unsigned Patience = 0,
                       uint64_t Birth = 0);

  /// An open scope aborts (rolls back) on destruction.
  ~Transaction();
  Transaction(const Transaction &) = delete;
  Transaction &operator=(const Transaction &) = delete;

  TxnState state() const { return St; }
  TxnAbortCause abortCause() const { return Cause; }

  /// The scope's commit sequence number, stamped from a process-global
  /// clock *before* any lock is released: replaying committed scopes in
  /// commit-sequence order reproduces the serialization order on every
  /// contended key (the stress oracle's contract). Valid after a
  /// successful commit() of a scope that wrote; a read-only commit
  /// stamps nothing and leaves this 0.
  uint64_t commitSeq() const { return Seq; }

  /// The scope's wait-die birth stamp (sync/CommitClock.h). Feed it back
  /// as the \p Birth of the retry scope so the logical transaction ages.
  uint64_t birthStamp() const { return BirthStamp; }

  /// The scope's read snapshot: every query() sees exactly the commits
  /// with sequence ≤ this (plus the scope's own writes).
  uint64_t snapshotSeq() const { return Snap; }

  /// Operations executed, undo records pending, failed lock tries.
  /// @{
  uint64_t opsExecuted() const { return Ops; }
  size_t undoDepth() const { return Undo.size(); }
  uint64_t restarts() const { return Restarts; }
  /// @}

  /// Access-path report of the scope's most recent query(): which path
  /// served it (primary point lookup, secondary directory, or the
  /// whole-store fallback) and how many chains/links it touched. The
  /// txn_mvcc_test access-path assertions read this; zeroed until the
  /// first query.
  const SnapshotQueryStats &lastSnapshotReadStats() const {
    return LastReadStats;
  }

  /// query r s C inside the scope: a *snapshot read* of the relation's
  /// MVCC store at the scope's snapshot, overlaid with the scope's own
  /// uncommitted writes. Acquires no locks, resolves no plan, and never
  /// dies — see the file comment for the consistency class (snapshot
  /// isolation; use queryForUpdate() for read-modify-write). \p Visit
  /// (optional) streams every matching full tuple; \p Matches
  /// (optional) receives the match count. Returns false iff the scope
  /// was already finished.
  bool query(const PreparedQuery &Q, std::initializer_list<Value> Args,
             function_ref<void(const Tuple &)> Visit = nullptr,
             uint32_t *Matches = nullptr);

  /// query r s C with 2PL semantics: locks the read set exclusively
  /// (PlanOp::QueryForUpdate) and retains the locks to commit — the
  /// read-modify-write primitive (a later write justified by this read
  /// is serializable; lost updates are impossible). Reads the current
  /// committed-plus-own state, not the snapshot. Returns false iff the
  /// scope died — it has already rolled back, state() is Aborted, and
  /// abortCause() says why.
  bool queryForUpdate(const PreparedQuery &Q,
                      std::initializer_list<Value> Args,
                      function_ref<void(const Tuple &)> Visit = nullptr,
                      uint32_t *Matches = nullptr);

  /// insert r s t inside the scope; \p Won (optional) receives whether
  /// the put-if-absent won. Returns false iff the scope died.
  bool insert(const PreparedInsert &I, std::initializer_list<Value> Args,
              bool *Won = nullptr);

  /// remove r s inside the scope; \p Removed (optional) receives the
  /// number removed (0 or 1). Returns false iff the scope died.
  bool remove(const PreparedRemove &R, std::initializer_list<Value> Args,
              unsigned *Removed = nullptr);

  /// Commits: stamps the commit sequence, flushes buffered mirror
  /// writes to an in-flight migration's shadow (locks still held),
  /// releases every lock, and exits the gate. False if not Open.
  bool commit();

  /// Rolls back every mutation via the inverse plans and releases the
  /// scope. No-op unless Open.
  void abort();

private:
  friend class ShardedTransaction;

  struct Opts {
    unsigned Patience = 0;
    uint64_t Birth = 0;       ///< carried birth stamp (0: stamp fresh)
    uint64_t Snap = 0;        ///< adopted snapshot (0: acquire + own a
                              ///< registry slot) — the sharded scope
                              ///< owns one snapshot for every sub
    bool Nested = false;      ///< part of a ShardedTransaction
    bool BoundedGate = false; ///< joining mid-scope: bounded gate wait
    bool ForceTry = false;    ///< out-of-shard-order join: never block
  };
  Transaction(ConcurrentRelation &R, const Opts &O);

  struct UndoRecord {
    bool WasInsert; ///< else a remove
    Tuple Full;     ///< the tuple inserted / removed, in full
  };

  /// The shared execution core: resolves the transactional plan for
  /// \p Impl's kind, executes it on the scope's context with the
  /// bounded wait-die retry loop, captures undo, and reports the
  /// op-kind result. False iff the scope died (already rolled back).
  bool execOp(const detail::PreparedOpImpl &Impl, const Value *Args,
              size_t NumArgs, function_ref<void(const Tuple &)> Visit,
              int64_t &Result);

  /// Lazy gate entry (first lock-taking op): enters \p Rel's operation
  /// gate — boundedly for a mid-scope shard join — and pins the plan
  /// epoch. False iff the scope died (GateBusy, already rolled back).
  bool ensureGate();

  /// The snapshot read core, shared with ShardedTransaction's direct
  /// per-shard reads: visits \p R's version store at \p Snap overlaid
  /// with the write set in \p Undo (its keys supersede the committed
  /// chains; its net inserts are appended). A read that fell back to
  /// the whole-store scan requests a secondary directory for its
  /// column set afterwards (outside the epoch guard), so the next read
  /// with this shape is directory-served. \p Stats (optional) receives
  /// the access-path report. Returns the match count.
  static uint32_t
  snapshotReadOver(const ConcurrentRelation &R,
                   const std::vector<UndoRecord> &Undo, const Tuple &Input,
                   uint64_t Snap, function_ref<void(const Tuple &)> Visit,
                   SnapshotQueryStats *Stats = nullptr);

  void commitWithSeq(uint64_t S);
  void abortWith(TxnAbortCause C);
  void rollbackUndo();
  void releaseScope();

  ConcurrentRelation *Rel;
  /// Borrowed from the thread's pool for the scope's lifetime: locks
  /// and instance pins live here until commit or abort. Null once the
  /// scope has finished (and before the gate was entered).
  ExecContext *Ctx = nullptr;
  ExecContext::TxnFrame Frame;
  std::vector<UndoRecord> Undo;
  TxnState St = TxnState::Open;
  TxnAbortCause Cause = TxnAbortCause::None;
  uint64_t Seq = 0;
  uint64_t BirthStamp = 0; ///< wait-die age (sync/CommitClock.h)
  uint64_t Snap = 0;       ///< the scope's read snapshot
  SnapshotQueryStats LastReadStats; ///< most recent query()'s path
  uint64_t StartEpoch = 0;
  uint64_t Ops = 0;
  uint64_t Restarts = 0;
  unsigned TryBudget; ///< failed tries per op before the scope dies
  unsigned SnapSlot = 0;    ///< watermark registry slot (if owned)
  bool OwnsSnapSlot = false;
  bool GateHeld = false;
  bool WantBoundedGate = false; ///< ensureGate waits boundedly
  bool Nested = false;
};

/// A serializable multi-operation scope over a ShardedRelation: one
/// lazy inner Transaction per touched shard, shard-index-major lock
/// order, one commit sequence for the whole scope. Single-shard scopes
/// create one inner scope and pay no cross-shard coordination.
class ShardedTransaction {
public:
  explicit ShardedTransaction(ShardedRelation &R, unsigned Patience = 0,
                              uint64_t Birth = 0);
  ~ShardedTransaction();
  ShardedTransaction(const ShardedTransaction &) = delete;
  ShardedTransaction &operator=(const ShardedTransaction &) = delete;

  TxnState state() const { return St; }
  TxnAbortCause abortCause() const { return Cause; }
  uint64_t commitSeq() const { return Seq; }
  /// The whole sharded scope ages as one wait-die participant: every
  /// inner per-shard scope carries this stamp to its lock owner tables.
  uint64_t birthStamp() const { return BirthStamp; }
  /// The one snapshot every read in the scope uses, on every shard —
  /// a cross-shard commit installs all its shards' versions inside one
  /// beginCommit window, so this snapshot can never see half of one.
  uint64_t snapshotSeq() const { return Snap; }
  /// Shards this scope holds locks (and the gate) on so far.
  unsigned shardsTouched() const;

  /// Access-path attribution of the scope's most recent query(), one
  /// (shard index, stats) entry per shard the read actually walked, in
  /// ascending shard order: a routed single-shard read reports one
  /// entry, a fan-out one per shard. The sharded analogue of
  /// Transaction::lastSnapshotReadStats() — per-shard because each
  /// shard's version store serves (or full-scans) independently.
  /// Empty until the first query().
  const std::vector<std::pair<unsigned, SnapshotQueryStats>> &
  lastSnapshotReadStats() const {
    return LastReadStats;
  }

  /// The sharded operations mirror Transaction's, with routing: a
  /// signature covering the routing columns touches one shard; an
  /// under-bound query or remove fans out across every shard in
  /// ascending shard order (which is exactly the deadlock-free join
  /// order). query() is a snapshot read like Transaction::query — it
  /// reads the touched shards' version stores directly (overlaid with
  /// any writes the scope already made there), opens no per-shard
  /// scope, takes no gate and no lock, and never dies;
  /// queryForUpdate() keeps the 2PL read. The locking ops return false
  /// iff the scope died (rolled back on every touched shard).
  /// @{
  bool query(const ShardedQuery &Q, std::initializer_list<Value> Args,
             function_ref<void(const Tuple &)> Visit = nullptr,
             uint32_t *Matches = nullptr);
  bool queryForUpdate(const ShardedQuery &Q,
                      std::initializer_list<Value> Args,
                      function_ref<void(const Tuple &)> Visit = nullptr,
                      uint32_t *Matches = nullptr);
  bool insert(const ShardedInsert &I, std::initializer_list<Value> Args,
              bool *Won = nullptr);
  bool remove(const ShardedRemove &R, std::initializer_list<Value> Args,
              unsigned *Removed = nullptr);
  /// @}

  bool commit();
  void abort();

private:
  Transaction *subFor(unsigned Shard);
  void dieWith(TxnAbortCause C);
  /// The shared execution core behind the three sharded ops: routes a
  /// covered signature to its one shard, fans an under-bound one out
  /// across every shard in ascending (join-safe) order, and sums the
  /// per-shard results. False iff the scope died.
  bool runOps(const detail::ShardedOpImpl &SI, const Value *Args,
              size_t NumArgs, function_ref<void(const Tuple &)> Visit,
              int64_t &Total);

  ShardedRelation *Rel;
  std::vector<std::unique_ptr<Transaction>> Subs; ///< lazily opened
  TxnState St = TxnState::Open;
  TxnAbortCause Cause = TxnAbortCause::None;
  uint64_t Seq = 0;
  uint64_t BirthStamp = 0; ///< shared by every inner scope
  uint64_t Snap = 0;       ///< one snapshot for every shard
  /// Most recent query()'s per-shard access paths (see accessor).
  std::vector<std::pair<unsigned, SnapshotQueryStats>> LastReadStats;
  unsigned SnapSlot = 0;   ///< watermark registry slot (always owned)
  unsigned Patience;
  int MaxShard = -1; ///< highest shard joined so far (order discipline)
};

/// Maps a relation surface to its transaction type (runTransaction).
template <typename RelT> struct TxnHandleFor;
template <> struct TxnHandleFor<ConcurrentRelation> {
  using type = Transaction;
};
template <> struct TxnHandleFor<ShardedRelation> {
  using type = ShardedTransaction;
};

/// Runs \p Body inside a transaction scope on \p Rel and commits.
/// A scope that dies (Conflict, EpochChange, GateBusy) is retried, after
/// a Backoff pause that grows across attempts, with the attempt number
/// as its patience — the aging that makes bounded wait-die fair: a
/// long-suffering logical transaction tolerates ever
/// more failed tries per op, so it eventually outlasts younger rivals
/// on any contended key. \p Body receives the open scope and returns
/// false to request a user abort (rolled back, not retried). Returns
/// true once a scope commits; false on user abort or after
/// \p MaxAttempts retries (0 = unbounded).
template <typename RelT, typename BodyFn>
bool runTransaction(RelT &Rel, BodyFn &&Body, unsigned MaxAttempts = 0) {
  // One birth stamp for the whole logical transaction: the first scope
  // stamps it, every retry carries it, so under wait-die the retried
  // transaction only ever gains seniority (the fairness argument).
  uint64_t Birth = 0;
  Backoff B(WaitSite::TxnRetry);
  for (unsigned Attempt = 0; MaxAttempts == 0 || Attempt < MaxAttempts;
       ++Attempt) {
    typename TxnHandleFor<RelT>::type Txn(Rel, /*Patience=*/Attempt, Birth);
    Birth = Txn.birthStamp();
    bool BodyOk = Body(Txn);
    // A body that committed by hand is done, whatever it returned — a
    // committed scope must never fall through into the retry loop
    // (that would re-execute its effects).
    if (Txn.state() == TxnState::Committed)
      return true;
    if (!BodyOk) {
      if (Txn.state() == TxnState::Open)
        Txn.abort();
      return false;
    }
    if (Txn.state() == TxnState::Open && Txn.commit())
      return true;
    if (Txn.abortCause() == TxnAbortCause::User)
      return false;
    // One Backoff across the attempts, so each re-contention waits a
    // little longer (up to 1 ms) and a bound on attempts also spans
    // time. A scope killed again and again by an older holder that
    // stalled (descheduled, or waiting on a log flush) then outlasts
    // the stall rather than spending every attempt inside it.
    B.pause();
  }
  return false;
}

} // namespace crs

#endif // CRS_TXN_TRANSACTION_H
