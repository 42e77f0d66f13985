/**
 * @file
 * Serializability checking for the native library: a mutex-protected
 * log of committed transactions, each carrying the serialization
 * stamp its backend assigned (TL2: the GV1 clock value a writer
 * committed at, or the read version a read-only transaction ran at;
 * global lock: a ticket taken under the lock).
 *
 * validate() hands the log to the stamp-ordered replay shared with
 * the simulator's TxOracle (sim/replay.hh) under libflextm's two
 * rules: regions are zero-initialized, so a byte the history never
 * wrote must read zero, and there is no final-image diff.  Writer
 * stamps are unique by construction (atomic clock fetch_add / mutex
 * ticket); the replay checks it.
 */

#ifndef FLEXTM_NATIVE_ACCESS_LOG_HH
#define FLEXTM_NATIVE_ACCESS_LOG_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/replay.hh"

namespace flextm::native
{

class AccessLog
{
  public:
    using Op = replay::Op;
    using Report = replay::Report;

    /** Record one committed transaction of thread @p tid (called by
     *  the library with the commit already decided; aborted attempts
     *  never reach the log). */
    void commitTxn(ThreadId tid, std::uint64_t stamp,
                   std::vector<Op> ops);

    /** Replay all committed transactions in stamp order.  Call after
     *  the workload quiesces (concurrent commitTxn calls are safe but
     *  wait for the replay, whose report is a snapshot). */
    Report validate() const;

    std::uint64_t committedTxns() const;

  private:
    mutable std::mutex mu_;
    std::vector<replay::Txn> txns_;
};

} // namespace flextm::native

#endif // FLEXTM_NATIVE_ACCESS_LOG_HH
