/**
 * @file
 * One table of replay cases, run through both front-ends of the
 * stamp-ordered replay (sim/replay.hh): the simulator's TxOracle,
 * which seeds never-written bytes from their first read and diffs
 * the final memory image, and libflextm's AccessLog, which demands
 * that never-written bytes read zero and has no final image.
 *
 * Each case lists its committed transactions in arrival order with
 * their stamps and the verdict each front-end must reach.  TxOracle
 * draws its stamps from one counter, so it cannot record a stamp tie;
 * for a case with ties the simulator's column is checked through
 * replay::check() under the simulator's two rules, which is all
 * TxOracle::validate() does.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "native/access_log.hh"
#include "sim/oracle.hh"

using namespace flextm;

namespace
{

struct Case
{
    const char *name;
    std::vector<replay::Txn> txns;  //!< arrival order
    /** Final memory image for the simulator: (address, 8-byte word). */
    std::map<Addr, std::uint64_t> finalWords;
    /** Expected failure substring per front-end; "" means it passes. */
    const char *simFails;
    const char *nativeFails;
};

replay::Op
rd(Addr a, std::uint64_t v)
{
    return replay::Op{false, a, v, 8};
}

replay::Op
wr(Addr a, std::uint64_t v)
{
    return replay::Op{true, a, v, 8};
}

replay::Txn
txn(ThreadId tid, std::uint64_t stamp, std::vector<replay::Op> ops)
{
    bool writes = false;
    for (const replay::Op &op : ops)
        writes = writes || op.isWrite;
    return replay::Txn{tid, writes, stamp, std::move(ops)};
}

constexpr Addr X = 0x1000;
constexpr Addr Y = 0x1008;

const char *const kRead = "non-serializable read";
const char *const kTie = "share serialization stamp";
const char *const kFinal = "final state diverges";

const std::vector<Case> &
cases()
{
    static const std::vector<Case> table = {
        {"SerialHistory",
         {txn(1, 1, {wr(X, 5)}), txn(2, 2, {rd(X, 5), wr(Y, 6)})},
         {{X, 5}, {Y, 6}},
         "",
         ""},
        {"StaleRead",
         {txn(1, 1, {wr(X, 5)}), txn(2, 2, {rd(X, 0)})},
         {{X, 5}},
         kRead,
         kRead},
        // Both incremented the value the first one started from.
        {"LostUpdate",
         {txn(1, 1, {rd(X, 0), wr(X, 1)}), txn(2, 2, {rd(X, 0), wr(X, 1)})},
         {{X, 1}},
         kRead,
         kRead},
        {"TwoWritersShareAStamp",
         {txn(1, 4, {wr(X, 1)}), txn(2, 4, {wr(Y, 2)})},
         {{X, 1}, {Y, 2}},
         kTie,
         kTie},
        // The reader arrives first, but a reader stamped rv == a
        // writer's wv began after that writer committed.
        {"WriterBeforeReaderOnTie",
         {txn(1, 2, {wr(X, 1)}), txn(2, 6, {rd(X, 3)}),
          txn(3, 6, {wr(X, 3)})},
         {{X, 3}},
         "",
         ""},
        {"ReaderOnTieSawPreWriterValue",
         {txn(1, 2, {wr(X, 1)}), txn(2, 6, {rd(X, 1)}),
          txn(3, 6, {wr(X, 3)})},
         {{X, 3}},
         kRead,
         kRead},
        {"NeverWrittenReadOfNonzero",
         {txn(1, 1, {rd(X, 7)})},
         {{X, 7}},
         "",
         kRead},
        {"NeverWrittenReadOfZero",
         {txn(1, 1, {rd(X, 0)})},
         {},
         "",
         ""},
        // The native library has no final image to diverge from.
        {"FinalImageDiverges",
         {txn(1, 1, {wr(X, 5)})},
         {{X, 6}},
         kFinal,
         ""},
    };
    return table;
}

replay::PeekFn
peekOf(const std::map<Addr, std::uint64_t> &words)
{
    return [&words](Addr a, void *out, unsigned size) {
        auto *p = static_cast<std::uint8_t *>(out);
        for (unsigned i = 0; i < size; ++i) {
            const Addr word = (a + i) & ~Addr{7};
            const auto it = words.find(word);
            p[i] = it == words.end()
                       ? 0
                       : static_cast<std::uint8_t>(
                             it->second >> (8 * ((a + i) - word)));
        }
    };
}

bool
stampsStrictlyRise(const std::vector<replay::Txn> &txns)
{
    for (std::size_t i = 1; i < txns.size(); ++i) {
        if (txns[i].stamp <= txns[i - 1].stamp)
            return false;
    }
    return true;
}

replay::Report
runSim(const Case &c)
{
    const replay::PeekFn peek = peekOf(c.finalWords);
    if (!stampsStrictlyRise(c.txns)) {
        return replay::check(c.txns,
                             replay::Unwritten::SeedFromFirstRead, peek,
                             "");
    }
    TxOracle o;
    for (const replay::Txn &t : c.txns) {
        o.beginTxn(t.tid);
        for (const replay::Op &op : t.ops) {
            if (op.isWrite)
                o.recordWrite(t.tid, op.addr, op.size, op.value);
            else
                o.recordRead(t.tid, op.addr, op.size, op.value);
        }
        o.stamp(t.tid);
        o.commitTxn(t.tid);
    }
    return o.validate(peek);
}

replay::Report
runNative(const Case &c)
{
    native::AccessLog log;
    for (const replay::Txn &t : c.txns)
        log.commitTxn(t.tid, t.stamp, t.ops);
    return log.validate();
}

void
expectVerdict(const replay::Report &r, const char *fails,
              std::size_t txns)
{
    if (*fails == '\0') {
        EXPECT_TRUE(r.ok) << r.message;
        EXPECT_EQ(r.checkedTxns, txns);
        return;
    }
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find(fails), std::string::npos) << r.message;
}

class ReplayCases : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ReplayCases, SimulatorFrontEnd)
{
    const Case &c = cases()[GetParam()];
    expectVerdict(runSim(c), c.simFails, c.txns.size());
}

TEST_P(ReplayCases, NativeFrontEnd)
{
    const Case &c = cases()[GetParam()];
    expectVerdict(runNative(c), c.nativeFails, c.txns.size());
}

INSTANTIATE_TEST_SUITE_P(Table, ReplayCases,
                         ::testing::Range(std::size_t{0},
                                          cases().size()),
                         [](const auto &info) {
                             return std::string(
                                 cases()[info.param].name);
                         });

} // anonymous namespace
