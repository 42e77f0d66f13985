#include "sim/replay.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "sim/flat_map.hh"
#include "sim/logging.hh"

namespace flextm::replay
{

std::vector<const Txn *>
stampOrder(const std::vector<Txn> &txns)
{
    std::vector<const Txn *> order;
    order.reserve(txns.size());
    for (const Txn &t : txns)
        order.push_back(&t);
    std::sort(order.begin(), order.end(),
              [](const Txn *a, const Txn *b) {
                  return a->stamp < b->stamp;
              });
    // Ties are rare (the simulator never makes one), so each run of
    // equal stamps is ordered afterwards: writers first, then arrival
    // order (pointers into one vector compare in arrival order).
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i]->stamp != order[i - 1]->stamp)
            continue;
        const std::size_t first = i - 1;
        while (i + 1 < order.size() &&
               order[i + 1]->stamp == order[first]->stamp)
            ++i;
        std::sort(order.begin() + first, order.begin() + i + 1,
                  [](const Txn *a, const Txn *b) {
                      return a->writes != b->writes ? a->writes : a < b;
                  });
    }
    return order;
}

Report
check(const std::vector<Txn> &txns, Unwritten unwritten,
      const PeekFn &finalImage, const std::string &context)
{
    Report rep;
    auto fail = [&](const std::string &msg) {
        rep.ok = false;
        rep.message = context.empty() ? msg : context + ": " + msg;
        return rep;
    };

    // The shadow is kept at line granularity (an op never crosses a
    // line, so each op costs one map probe); a valid-byte mask tracks
    // the bytes the replay has defined.
    struct ShadowLine
    {
        std::uint64_t mask = 0;
        std::uint8_t bytes[lineBytes] = {};
    };
    const bool seed = unwritten == Unwritten::SeedFromFirstRead;
    FlatMap<Addr, ShadowLine> shadow;
    shadow.reserve(1024);
    const Txn *prev = nullptr;
    for (const Txn *t : stampOrder(txns)) {
        // Writers sort first within a tie, so a writer right behind a
        // same-stamped transaction means two writers share the stamp.
        if (t->writes && prev && prev->stamp == t->stamp) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "two writers (threads %u and %u) share "
                          "serialization stamp %llu",
                          prev->tid, t->tid,
                          static_cast<unsigned long long>(t->stamp));
            return fail(buf);
        }
        prev = t;
        ++rep.checkedTxns;
        for (const Op &op : t->ops) {
            ++rep.checkedOps;
            std::uint8_t bytes[8];
            std::memcpy(bytes, &op.value, sizeof(bytes));
            sim_assert(op.size >= 1 && op.size <= 8);
            const unsigned off =
                static_cast<unsigned>(op.addr & lineMask);
            sim_assert(off + op.size <= lineBytes,
                       "replay op crosses a line");
            ShadowLine &sl = shadow[lineAlign(op.addr)];
            if (op.isWrite) {
                std::memcpy(sl.bytes + off, bytes, op.size);
                sl.mask |= ((std::uint64_t{1} << op.size) - 1) << off;
                continue;
            }
            for (unsigned i = 0; i < op.size; ++i) {
                const std::uint64_t bit = std::uint64_t{1}
                                          << (off + i);
                // An undefined byte is still zero in the shadow.
                if (seed && !(sl.mask & bit)) {
                    sl.bytes[off + i] = bytes[i];
                    sl.mask |= bit;
                    continue;
                }
                if (sl.bytes[off + i] == bytes[i])
                    continue;
                char buf[224];
                std::snprintf(
                    buf, sizeof(buf),
                    "non-serializable read by thread %u (stamp %llu) "
                    "at 0x%llx size %u: byte %u read 0x%02x, replay "
                    "expects 0x%02x",
                    t->tid, static_cast<unsigned long long>(t->stamp),
                    static_cast<unsigned long long>(op.addr), op.size,
                    i, bytes[i], sl.bytes[off + i]);
                return fail(buf);
            }
        }
    }
    if (!finalImage)
        return rep;

    // Final-state diff: every byte the replay defined must match the
    // final memory.  Lines ascending, bytes ascending within each
    // line, so a multi-byte divergence always names the same (lowest)
    // byte - and each line costs one peek (the simulator's peek walks
    // every core's L1 for a fresher copy, far too slow per byte).
    shadow.forEachSorted([&](Addr base, const ShadowLine &sl) {
        if (!rep.ok)
            return;
        std::uint8_t actual[lineBytes];
        finalImage(base, actual, lineBytes);
        for (unsigned i = 0; i < lineBytes; ++i) {
            if (!(sl.mask >> i & 1) || actual[i] == sl.bytes[i])
                continue;
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "final state diverges at 0x%llx: memory "
                          "0x%02x, replay expects 0x%02x",
                          static_cast<unsigned long long>(base + i),
                          actual[i], sl.bytes[i]);
            fail(buf);
            return;
        }
    });
    return rep;
}

} // namespace flextm::replay
