/**
 * @file
 * Serializability oracle for transactional histories.
 *
 * The oracle records, per transaction, the logical reads and writes
 * the workload issued plus a serialization stamp taken by the runtime
 * at its linearization point (clock CAS for TL2 writers, CAS-Commit
 * for FlexTM/RTM-F, validation start for RSTM, lock release for CGL,
 * the read-clock sample for TL2 read-only transactions).  Plain
 * accesses outside transactions are recorded as singleton committed
 * operations.
 *
 * validate() hands the committed history to the stamp-ordered replay
 * shared with libflextm (sim/replay.hh) under the simulator's two
 * rules: bytes the history never wrote seed the shadow from their
 * first read (the pre-existing memory image needs no dump), and after
 * the replay every shadow byte must match the machine's actual final
 * memory (MemorySystem::peek).  Failure reports name the run context
 * (fault seed, runtime, workload) so they can be replayed.
 */

#ifndef FLEXTM_SIM_ORACLE_HH
#define FLEXTM_SIM_ORACLE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/replay.hh"
#include "sim/types.hh"

namespace flextm
{

/** Records transactional histories and replays them for validation. */
class TxOracle
{
  public:
    using Report = replay::Report;
    using PeekFn = replay::PeekFn;

    /** Prefix for failure messages ("seed=... runtime=... ..."). */
    void setContext(std::string ctx) { context_ = std::move(ctx); }
    const std::string &context() const { return context_; }

    /** @name Recording interface (driven by TxThread) */
    /// @{
    void beginTxn(ThreadId tid);
    /** (Re)take the serialization stamp at the linearization point.
     *  Must be called with no scheduler yield between the linearizing
     *  protocol action and this call. */
    void stamp(ThreadId tid);
    void recordRead(ThreadId tid, Addr a, unsigned size,
                    std::uint64_t v);
    void recordWrite(ThreadId tid, Addr a, unsigned size,
                     std::uint64_t v);
    void commitTxn(ThreadId tid);
    void abortTxn(ThreadId tid);

    /** Plain accesses outside any transaction (stamped immediately;
     *  the caller must not have yielded since the memory access). */
    void plainRead(ThreadId tid, Addr a, unsigned size,
                   std::uint64_t v);
    void plainWrite(ThreadId tid, Addr a, unsigned size,
                    std::uint64_t v);
    /// @}

    std::size_t committedCount() const { return committed_.size(); }
    std::size_t abortedCount() const { return aborted_; }

    /** Sequentially replay the committed history and diff final
     *  memory state. */
    Report
    validate(const PeekFn &peek) const
    {
        return replay::check(committed_,
                             replay::Unwritten::SeedFromFirstRead, peek,
                             context_);
    }

    /** Debug aid for failing seeds: every committed op touching the
     *  byte at @p addr, one line each, in stamp order. */
    std::string historyForByte(Addr addr) const;

    /**
     * State auditor cross-check (invariant I3): visit every op the
     * open transaction of @p tid has recorded so far as
     * fn(is_write, addr, size).  No-op when @p tid has no open
     * transaction.
     */
    template <typename Fn>
    void
    forEachOpenOp(ThreadId tid, Fn fn) const
    {
        const auto it = open_.find(tid);
        if (it == open_.end())
            return;
        for (const auto &op : it->second.ops)
            fn(op.isWrite, op.addr, op.size);
    }

  private:
    replay::Txn &openFor(ThreadId tid);
    void plainOp(ThreadId tid, replay::Op op);

    std::uint64_t nextStamp_ = 1;
    std::map<ThreadId, replay::Txn> open_;
    std::vector<replay::Txn> committed_;
    std::size_t aborted_ = 0;
    std::string context_;
};

} // namespace flextm

#endif // FLEXTM_SIM_ORACLE_HH
