//===- runtime/Interpreter.h - Query plan execution -------------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled plans (§5.2) against a decomposition instance — both
/// the read statements (lock/lookup/scan/spec*) and the write statements
/// of mutation plans (probe/create/insert-entry/erase-entry), so insert,
/// remove, and query all run through one executor on planner-emitted IR.
///
/// Execution state lives in a reusable per-thread ExecContext with flat
/// frames: every query state (t, m) of §5.2 is one tuple plus a
/// fixed-stride row of *indices* into an instance pool, appended to
/// arena-style arrays that keep their capacity across operations. Plan
/// variables are contiguous ranges over the arena (plans are in SSA
/// form: each variable is produced by exactly one statement), so a
/// statement is a linear pass over its input range — no per-statement
/// vector-of-struct churn and no reference-count traffic per copied
/// binding. A warm operation allocates nothing: container keys are read
/// from the state tuples into stack rows of values.
///
/// Lock statements sort the physical locks they acquire into the global
/// lock order (§5.1) before acquisition; speculative statements
/// implement the guess-verify protocol of §4.5, restarting the
/// transaction on a wrong guess or an out-of-order conflict (the
/// try-lock/restart discipline that keeps speculation deadlock-free).
///
//===----------------------------------------------------------------------===//

#ifndef CRS_RUNTIME_INTERPRETER_H
#define CRS_RUNTIME_INTERPRETER_H

#include "plan/QueryIR.h"
#include "rel/Tuple.h"
#include "runtime/NodeInstance.h"
#include "sync/LockSet.h"

#include <atomic>
#include <cassert>
#include <vector>

namespace crs {

/// Outcome of executing a plan.
enum class ExecStatus : uint8_t {
  Ok,      ///< plan ran to completion; results valid
  Restart, ///< speculation failed; release everything and re-execute
  Found,   ///< a put-if-absent guard tripped: a tuple matching s exists
};

/// Where a MirrorWrite statement replays committed mutations: the
/// shadow representation of an in-flight migration
/// (runtime/Migration.h installs one per mutating operation while the
/// dual-write phase is active). Implementations execute the replay on
/// the thread's *secondary* execution context — the primary context is
/// mid-plan, its source-representation locks still held, which is what
/// keeps the pair of writes atomic to every observer.
class MirrorSink {
public:
  virtual ~MirrorSink() = default;
  /// Replays `Op` (Insert or Remove) with dom(s) = \p DomS and the
  /// original input tuple \p Input on the shadow representation. Must
  /// not throw; must not adjust the relation's logical tuple count
  /// (the source plan's UpdateCount already did).
  virtual void mirror(PlanOp Op, ColumnSet DomS, const Tuple &Input) = 0;
};

/// Reusable per-thread execution state. One operation at a time: run the
/// plan, read the results, release the locks, then reset(). A locked
/// execution's instance pool pins every bound node instance (one
/// reference each) until reset() — this is what lets the shrinking phase
/// unlock stripes of instances the plan just unlinked (POSIX forbids
/// destroying a lock mid-unlock), so reset() must only be called *after*
/// Locks.releaseAll(). A lock-free execution pins nothing: its epoch
/// guard keeps every instance it reached allocated (NodeInstance.h).
class ExecContext {
public:
  static constexpr uint32_t NoBinding = UINT32_MAX;

  LockSet Locks;

  /// Relation tuple counter adjusted by UpdateCount statements.
  std::atomic<size_t> *Count = nullptr;

  /// Shadow-representation sink for MirrorWrite statements. Installed
  /// per mutating operation by the relation (null outside a
  /// migration's dual-write phase); read only when a plan carries a
  /// MirrorWrite epilogue, so it costs nothing on ordinary traffic.
  MirrorSink *Mirror = nullptr;

  /// The state a multi-operation transaction scope (src/txn) threads
  /// through the executor. While installed (non-null Txn):
  ///
  ///  * begin() preserves the instance pool and the lock set across
  ///    plans — locks are retained to commit (strict 2PL), and pooled
  ///    instances must outlive the locks they own;
  ///  * lock statements acquire through LockSet::acquireTxn — in-order
  ///    requests wait (unless ForceTry), out-of-order requests try and
  ///    surface WouldBlock as ExecStatus::Restart for the transaction
  ///    layer's bounded wait-die path;
  ///  * MirrorWrite statements append to MirrorBuf instead of replaying
  ///    immediately — the dual-write contract is per *gated operation*,
  ///    and the gated operation here is the whole transaction: buffered
  ///    entries flush at commit (locks still held) or vanish on abort.
  struct TxnFrame {
    /// Cross-shard discipline: this scope joined the shard out of shard
    /// order, so no acquisition in it may block, in-order or not.
    bool ForceTry = false;
    /// A shared→exclusive escalation was requested (not upgradable);
    /// the transaction layer aborts the scope.
    bool SawUpgrade = false;
    /// Mutations awaiting replay on the migration shadow at commit.
    struct BufferedMirror {
      PlanOp Op;
      ColumnSet DomS;
      Tuple Input;
    };
    std::vector<BufferedMirror> MirrorBuf;
  };
  TxnFrame *Txn = nullptr;

  /// Rollback support for a transactional operation's retry path: pool
  /// growth since poolMark() is dropped by rollbackPool() *after* the
  /// corresponding LockSet::releaseToMark — instances must stay pinned
  /// until their unlocks have returned.
  size_t poolMark() const { return Pool.size(); }
  void rollbackPool(size_t Mark) {
    assert(Mark <= Pool.size() && "pool mark from a different scope");
    unpin(Mark);
  }

  /// The calling thread's execution context (one per thread, reused
  /// across operations and relations; arena capacity is recycled).
  static ExecContext &current();

  /// The calling thread's *secondary* context: mirror replays and
  /// migration backfill run target-representation plans on it while
  /// the primary context still holds the source representation's state
  /// and locks. Acquiring target locks while holding source locks is
  /// deadlock-free because every thread orders the two representations
  /// the same way (source first); nothing ever takes a source lock
  /// while holding a target lock.
  static ExecContext &mirrorCtx();

  /// Drops all states, bindings, and pooled instances, keeping arena
  /// capacity. Precondition: no locks held.
  void reset();

  /// A prepared handle's flat per-thread argument frame: one Value per
  /// bind slot plus a bitmask of slots bound so far. Frames persist
  /// across operations (bindings are sticky: rebind only what changed)
  /// and are never touched by reset(). Frame *ids* are recycled when
  /// handles die, so each frame carries the generation of the handle
  /// that last used it: a new handle reusing the id starts with a clean
  /// bound mask instead of a predecessor's stale bindings.
  struct ArgFrame {
    std::vector<Value> Vals;
    uint64_t BoundMask = 0;
    uint64_t Gen = 0;
  };

  /// The frame for the handle identified by (\p FrameId, \p Gen), sized
  /// to \p NumSlots and invalidated on generation change.
  ArgFrame &frame(uint32_t FrameId, uint64_t Gen, unsigned NumSlots) {
    if (FrameId >= Frames.size())
      Frames.resize(FrameId + 1);
    ArgFrame &F = Frames[FrameId];
    if (F.Vals.size() < NumSlots)
      F.Vals.resize(NumSlots);
    if (F.Gen != Gen) { // recycled id: drop the dead handle's bindings
      F.Gen = Gen;
      F.BoundMask = 0;
    }
    return F;
  }

  /// Reusable input tuple for prepared executions: rebound in place from
  /// a bind-slot layout plus argument frame (no allocation once warm),
  /// then passed to PlanExecutor::run as the operation's input. Survives
  /// reset() like the frames.
  Tuple &inputScratch() { return InputScratch; }

  /// Drops the sticky per-handle argument frames (including their bound
  /// masks). Called when a context changes threads through the
  /// transaction pool's recycle list: prepared-op bindings are a
  /// per-thread contract, so a handle must never observe another
  /// thread's bindings through an adopted context. The other arenas keep
  /// their capacity — that warmth is the point of recycling.
  void purgeFrames() { Frames.clear(); }

  /// Re-entrancy guard: set while an operation (including its streaming
  /// result visitation) is using this context, so a visitor calling back
  /// into a relation on the same thread fails fast instead of silently
  /// clobbering the in-flight operation's states.
  bool Busy = false;

  /// Epoch-protected execution mode (the wait-free read fast path): set
  /// by the relation before running an *epoch-eligible* query plan under
  /// an epoch guard. Lock statements become no-ops and speculative
  /// statements degrade to their plain unlocked reads (the guess *is*
  /// the result — with no lock taken there is nothing to verify
  /// against). Only valid for Plan::EpochEligible plans; cleared by
  /// OpScope::finish with the rest of the per-operation state.
  bool LockFree = false;

  /// Releases the context's locks and recycles its frames at scope
  /// exit. The context is long-lived (thread-local), so no destructor
  /// runs per operation — without this guard, an exception between
  /// run() and the explicit release (e.g. bad_alloc building a result
  /// vector, or a throwing forEach visitor) would leave the locks held
  /// forever. Marks the context busy for its lifetime, so re-entrant
  /// operations from result visitors fail fast in debug builds.
  /// Release-then-reset order matters: the pool must pin instances
  /// until every unlock has returned (POSIX forbids destroying a lock
  /// mid-unlock). Shared by the relation's operation paths, mirror
  /// replays, and the migration backfill.
  struct OpScope {
    ExecContext &Ctx;
    explicit OpScope(ExecContext &C) : Ctx(C) {
      assert(!Ctx.Busy &&
             "re-entrant operation on this execution context (a result "
             "visitor must not call back into a relation)");
      Ctx.Busy = true;
    }
    ~OpScope() { finish(); }
    OpScope(const OpScope &) = delete;
    OpScope &operator=(const OpScope &) = delete;
    /// Idempotent early release for the happy path (shortens hold time
    /// before result post-processing).
    void finish() {
      Ctx.Locks.releaseAll();
      Ctx.reset();
      Ctx.LockFree = false;
      Ctx.Busy = false;
    }
  };

  uint32_t numStates(PlanVar V) const { return Vars[V].Count; }
  const Tuple &stateTuple(PlanVar V, uint32_t I) const {
    return Tuples[Vars[V].First + I];
  }

  /// Append slots: reset() only rewinds NumStates, so the Tuple objects
  /// (and their entry-vector capacity) are recycled across operations —
  /// a warm operation allocates nothing per state. Each returns the new
  /// state's index; the assign* variants write the tuple content
  /// directly into the recycled slot.
  /// @{
  /// State copying \p Src's tuple and binding row.
  uint32_t pushStateCopy(uint32_t Src);
  /// State with tuple A ∪ (\p Cols ↦ \p Vals) (A.matchesRow required)
  /// and \p Src's row.
  uint32_t pushStateJoinRow(const Tuple &A, const ColumnId *Cols,
                            const Value *Vals, unsigned N, uint32_t Src);
  /// State with tuple π_C(Tuples[Src]) and an all-unbound binding row.
  uint32_t pushStateProjOf(uint32_t Src, ColumnSet C);
  /// @}

private:
  friend class PlanExecutor;

  struct VarRange {
    uint32_t First = 0;
    uint32_t Count = 0;
  };

  /// High-water tuple arena: the live states are Tuples[0..NumStates);
  /// the vector is never cleared, so slot objects keep their entry
  /// capacity across operations.
  std::vector<Tuple> Tuples;
  uint32_t NumStates = 0;
  std::vector<uint32_t> Bind;    ///< arena: Stride pool indices per state
  /// Bound instances; pinned (one reference each) unless the pool was
  /// started lock-free.
  std::vector<NodeInstance *> Pool;
  bool PoolPins = true;
  std::vector<VarRange> Vars;
  uint32_t Stride = 0;
  std::vector<ArgFrame> Frames;  ///< per-handle argument frames (sticky)
  Tuple InputScratch;            ///< prepared-execution input (sticky)
  Tuple ScanInput;               ///< a scanned state's tuple (recycled)
  struct LockReq {
    LockOrderKey Key;
    PhysicalLock *Lock;
  };
  std::vector<LockReq> LockReqs; ///< one Lock statement's requests
  std::vector<Value> KeyScratch; ///< a new instance's key (recycled)

  /// Starts a fresh operation: state 0 = (Input, {root ↦ Root}). In
  /// transaction mode (Txn installed) the lock set and instance pool
  /// survive — only the state arena and variable table rewind.
  void begin(uint32_t NumNodes, PlanVar NumVars, const Tuple &Input,
             NodeInstance *Root, NodeId RootNode);

  uint32_t numAllStates() const { return NumStates; }
  uint32_t bindIdx(uint32_t State, NodeId N) const {
    return Bind[size_t(State) * Stride + N];
  }
  void setBind(uint32_t State, NodeId N, uint32_t PoolIdx) {
    Bind[size_t(State) * Stride + N] = PoolIdx;
  }
  /// Binds \p P into the pool, pinning it when the pool pins. Returns
  /// NoBinding if \p P is already dead: its last reference dropped, as
  /// an unlocked guess can observe (the epoch keeps its memory, not its
  /// life).
  uint32_t intern(NodeInstance *P) {
    if (PoolPins && !P->tryAddRef())
      return NoBinding;
    Pool.push_back(P);
    return static_cast<uint32_t>(Pool.size() - 1);
  }
  /// Drops pool entries past \p Mark, unpinning them.
  void unpin(size_t Mark) {
    if (PoolPins)
      for (size_t I = Mark; I < Pool.size(); ++I)
        Pool[I]->release();
    Pool.resize(Mark);
  }
  /// Claims the next arena slot (recycled object or fresh) with an
  /// uninitialized binding row; returns its state index.
  uint32_t allocState();
};

/// Stateless plan executor bound to one decomposition + placement.
class PlanExecutor {
public:
  PlanExecutor(const Decomposition &D, const LockPlacement &P);

  /// Runs \p Plan with input tuple \p Input (the operation's s — or
  /// s ∪ t for insert plans) rooted at \p Root. Acquired locks go into
  /// \p Ctx.Locks and are *kept* on return (strict two-phase: the caller
  /// releases after reading results, then resets the context). On
  /// Restart the caller must release and retry; on Found (insert) a
  /// tuple matching s already exists and no writes were applied.
  /// Results are the states of Plan.ResultVar, read via Ctx.
  ExecStatus run(const Plan &Plan, const Tuple &Input, NodeInstance *Root,
                 ExecContext &Ctx) const;

  /// A fresh, empty root instance of the decomposition.
  NodeRef createRoot() const;

private:
  const Decomposition *Decomp;
  const LockPlacement *Placement;
  std::vector<uint32_t> TopoIdx;
  /// Per node: its instances' block layout.
  std::vector<const InstanceLayout *> Layouts;
  /// Per edge: its columns in ascending order, and its container's slot
  /// in a source instance.
  std::vector<std::vector<ColumnId>> EdgeCols;
  std::vector<unsigned> OutSlot;

  AnyContainer &container(const NodeInstance &Src, EdgeId E) const {
    return Src.out(OutSlot[E]);
  }

  LockOrderKey orderKey(NodeId Node, const NodeInstance &Inst,
                        uint32_t Stripe) const;

  ExecStatus execLock(const PlanStmt &St, ExecContext &Ctx) const;
  void execLookup(const PlanStmt &St, ExecContext &Ctx) const;
  void execScan(const PlanStmt &St, ExecContext &Ctx) const;
  ExecStatus execSpecLookup(const PlanStmt &St, ExecContext &Ctx) const;
  ExecStatus execSpecScan(const PlanStmt &St, ExecContext &Ctx) const;
  void execProbe(const PlanStmt &St, ExecContext &Ctx) const;
  void execRestrict(const PlanStmt &St, ExecContext &Ctx) const;
  void execCreateNode(const PlanStmt &St, ExecContext &Ctx) const;
  void execInsertEdge(const PlanStmt &St, ExecContext &Ctx) const;
  void execEraseEdge(const PlanStmt &St, ExecContext &Ctx) const;
};

} // namespace crs

#endif // CRS_RUNTIME_INTERPRETER_H
