#include "sim/oracle.hh"

#include <cstdio>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace flextm
{

replay::Txn &
TxOracle::openFor(ThreadId tid)
{
    auto it = open_.find(tid);
    sim_assert(it != open_.end(),
               "oracle: no open transaction for thread %u", tid);
    return it->second;
}

void
TxOracle::beginTxn(ThreadId tid)
{
    replay::Txn &t = open_[tid];
    t.tid = tid;
    t.writes = false;
    t.stamp = 0;
    t.ops.clear();
}

void
TxOracle::stamp(ThreadId tid)
{
    openFor(tid).stamp = nextStamp_++;
}

void
TxOracle::recordRead(ThreadId tid, Addr a, unsigned size,
                     std::uint64_t v)
{
    openFor(tid).ops.push_back(replay::Op{false, a, v, size});
}

void
TxOracle::recordWrite(ThreadId tid, Addr a, unsigned size,
                      std::uint64_t v)
{
    replay::Txn &t = openFor(tid);
    t.writes = true;
    t.ops.push_back(replay::Op{true, a, v, size});
}

void
TxOracle::commitTxn(ThreadId tid)
{
    auto it = open_.find(tid);
    sim_assert(it != open_.end(),
               "oracle: commit without begin on thread %u", tid);
    replay::Txn t = std::move(it->second);
    open_.erase(it);
    // Runtimes with an audited linearization point stamp explicitly;
    // anything else serializes here (single-threaded phases).
    if (t.stamp == 0)
        t.stamp = nextStamp_++;
    FTRACE(Oracle, t.stamp, "commit thread %u: %zu ops, stamp %llu",
           tid, t.ops.size(),
           static_cast<unsigned long long>(t.stamp));
    committed_.push_back(std::move(t));
}

void
TxOracle::abortTxn(ThreadId tid)
{
    auto it = open_.find(tid);
    if (it == open_.end())
        return;
    open_.erase(it);
    ++aborted_;
}

void
TxOracle::plainOp(ThreadId tid, replay::Op op)
{
    committed_.push_back(
        replay::Txn{tid, op.isWrite, nextStamp_++, {op}});
}

void
TxOracle::plainRead(ThreadId tid, Addr a, unsigned size,
                    std::uint64_t v)
{
    plainOp(tid, replay::Op{false, a, v, size});
}

void
TxOracle::plainWrite(ThreadId tid, Addr a, unsigned size,
                     std::uint64_t v)
{
    plainOp(tid, replay::Op{true, a, v, size});
}

std::string
TxOracle::historyForByte(Addr addr) const
{
    std::string out;
    for (const replay::Txn *t : replay::stampOrder(committed_)) {
        for (const replay::Op &op : t->ops) {
            if (addr < op.addr || addr >= op.addr + op.size)
                continue;
            char buf[160];
            std::snprintf(
                buf, sizeof(buf),
                "stamp %llu thread %u %s 0x%llx size %u value 0x%llx\n",
                static_cast<unsigned long long>(t->stamp), t->tid,
                op.isWrite ? "write" : "read",
                static_cast<unsigned long long>(op.addr), op.size,
                static_cast<unsigned long long>(op.value));
            out += buf;
        }
    }
    return out;
}

} // namespace flextm
