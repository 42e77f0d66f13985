/**
 * @file
 * Stamp-ordered replay: the one serializability check behind both the
 * simulator's TxOracle (sim/oracle.hh) and libflextm's AccessLog
 * (native/access_log.hh).
 *
 * Every committed transaction carries the serialization stamp its
 * runtime took at its linearization point (clock CAS for TL2 writers,
 * CAS-Commit for FlexTM/RTM-F, the read-clock sample for TL2
 * read-only transactions, a ticket under libflextm's global lock...).
 * check() sorts the committed transactions by (stamp, writers first,
 * arrival order) and replays them one after another against a shadow
 * memory: every recorded read must return exactly the value the
 * sequential replay predicts.  Any violation means the history is not
 * serializable in the order the runtime claims.
 *
 * Stamp ties: a read-only transaction may share its stamp with at
 * most one writer (a TL2 reader whose rv equals a writer's wv began
 * after that writer committed), and the writer replays first.  Ties
 * among readers are immaterial; two writers sharing a stamp fail.
 *
 * The two worlds differ in two rules, each a parameter of check():
 *  - Unwritten: how a byte the history never wrote reads.  The
 *    simulator seeds it from the first read (its pre-existing memory
 *    image needs no dump); libflextm regions are zero-initialized,
 *    so there such a byte must read zero.
 *  - finalImage: the simulator diffs every replayed byte against the
 *    machine's final memory (MemorySystem::peek); libflextm passes
 *    no image and has no final diff.
 *
 * Precondition: an op is 1 to 8 bytes and never crosses a line.
 */

#ifndef FLEXTM_SIM_REPLAY_HH
#define FLEXTM_SIM_REPLAY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace flextm::replay
{

struct Op
{
    bool isWrite;
    Addr addr;
    std::uint64_t value;
    unsigned size;  //!< 1 to 8 bytes
};

struct Txn
{
    ThreadId tid = 0;
    bool writes = false;  //!< holds at least one write op
    std::uint64_t stamp = 0;
    std::vector<Op> ops;
};

struct Report
{
    bool ok = true;
    std::string message;
    std::uint64_t checkedTxns = 0;
    std::uint64_t checkedOps = 0;
};

enum class Unwritten
{
    SeedFromFirstRead,  //!< simulator
    ReadsZero,          //!< libflextm
};

/** Reads @p size bytes of final memory at an address. */
using PeekFn = std::function<void(Addr, void *, unsigned)>;

/** @p txns (in arrival order) sorted by (stamp, writers first,
 *  arrival order). */
std::vector<const Txn *> stampOrder(const std::vector<Txn> &txns);

/** Replay @p txns in stamp order; diff against @p finalImage unless
 *  it is empty.  Failure messages start with "@p context: ". */
Report check(const std::vector<Txn> &txns, Unwritten unwritten,
             const PeekFn &finalImage, const std::string &context);

} // namespace flextm::replay

#endif // FLEXTM_SIM_REPLAY_HH
