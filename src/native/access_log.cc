#include "native/access_log.hh"

#include <algorithm>

namespace flextm::native
{

void
AccessLog::commitTxn(ThreadId tid, std::uint64_t stamp,
                     std::vector<Op> ops)
{
    const bool writes = std::any_of(
        ops.begin(), ops.end(), [](const Op &op) { return op.isWrite; });
    std::lock_guard<std::mutex> g(mu_);
    txns_.push_back(replay::Txn{tid, writes, stamp, std::move(ops)});
}

std::uint64_t
AccessLog::committedTxns() const
{
    std::lock_guard<std::mutex> g(mu_);
    return txns_.size();
}

AccessLog::Report
AccessLog::validate() const
{
    std::lock_guard<std::mutex> g(mu_);
    return replay::check(txns_, replay::Unwritten::ReadsZero, {}, "");
}

} // namespace flextm::native
