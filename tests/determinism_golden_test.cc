/**
 * @file
 * Determinism regression goldens.
 *
 * The simulator promises bit-identical behaviour for a fixed seed:
 * same commit/abort totals, same oracle-checked history, same cycle
 * counts, same machine counters.  Perf work (container swaps, stat
 * interning, caching layers) must not perturb any of that, so this
 * test pins a fingerprint per runtime - two faulted cells (HashTable
 * and LFUCache, fixed seeds, 4 threads, 96 ops) summarised as counts
 * plus an FNV-1a hash over a curated counter list.
 *
 * The counter list is curated, not exhaustive, on purpose: adding a
 * *new* diagnostic counter must not invalidate goldens, while any
 * change to the architectural counters below means simulated
 * behaviour changed and the golden must be re-derived deliberately.
 *
 * Two more goldens pin the scheduler's dispatch contract byte for
 * byte: per runtime, two chaos cells (HashTable seed 77101, LFUCache
 * seed 77102), and one 54-seed chaos fault/oracle sweep (seeds
 * 90000+i rotating over runtime x workload).  These hash the *full*
 * counter dump - every name and value forEachCounter yields - so any
 * change in dispatch order, clocks or RNG draws shows up.  Adding a
 * diagnostic counter therefore changes only their hash column; the
 * curated statHash above stays the semantic guard, so a full-dump
 * hash that moves while every statHash holds is a re-record, not a
 * behaviour change.
 *
 * To regenerate after an intentional semantic change:
 *   FLEXTM_GOLDEN_PRINT=1 ./determinism_golden_test
 * and paste the emitted tables over kGoldens, kDumpGoldens and
 * kSweepGolden below.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "runtime/runtime_factory.hh"
#include "workloads/fault_harness.hh"

namespace flextm
{
namespace
{

/** Architectural counters folded into the fingerprint hash.  Keep
 *  this list append-only-by-intent: it is the contract of what the
 *  perf layer may never change. */
const char *const kHashedCounters[] = {
    "l1.hits",
    "l1.writebacks",
    "l1.uncached_loads",
    "l1.silent_evictions",
    "l2.misses",
    "l2.evictions",
    "dir.requests",
    "dir.forwards",
    "dir.flushes",
    "mem.cas_ops",
    "commit.success",
    "commit.failed_csts",
    "commit.failed_aborted",
    "abort.flash",
    "ot.spills",
    "ot.refills",
    "ot.nacks",
    "ot.false_positives",
    "si.aborts",
    "pdi.tmi_installs",
    "pdi.ti_installs",
    "aou.ti_aloads",
    "tx.commits",
    "tx.aborts",
    "cm.enemy_aborts",
    "cm.self_aborts",
    "progress.irrevocable_entries",
    "progress.watchdog_trips",
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

struct Fingerprint
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t faultsFired = 0;
    std::uint64_t checkedTxns = 0;
    std::uint64_t checkedOps = 0;
    std::uint64_t cycles = 0;
    std::uint64_t statHash = kFnvOffset;
};

/** Which counters a cell folds into Fingerprint::statHash. */
enum class Hashed
{
    Curated,   //!< kHashedCounters, by value
    FullDump,  //!< every registered counter, name and value
};

/** Run one faulted cell and fold it into @p fp. */
void
accumulate(Fingerprint &fp, RuntimeKind rk, WorkloadKind wk,
           std::uint64_t seed, Hashed how)
{
    FaultRunOptions opt;
    opt.seed = seed;
    opt.quiet = true;
    opt.inspect = [&fp, how](Machine &m) {
        if (how == Hashed::Curated) {
            for (const char *name : kHashedCounters)
                fnv(fp.statHash, m.stats().counterValue(name));
            return;
        }
        m.stats().forEachCounter(
            [&fp](const std::string &name, std::uint64_t v) {
                for (unsigned char c : name) {
                    fp.statHash ^= c;
                    fp.statHash *= kFnvPrime;
                }
                fnv(fp.statHash, v);
            });
    };
    const FaultRunResult r = runFaultedExperiment(wk, rk, opt);
    EXPECT_TRUE(r.report.ok) << r.report.message;
    EXPECT_FALSE(r.timedOut) << r.context;
    fp.commits += r.commits;
    fp.aborts += r.aborts;
    fp.faultsFired += r.faultsFired;
    fp.checkedTxns += r.report.checkedTxns;
    fp.checkedOps += r.report.checkedOps;
    fnv(fp.statHash, r.cycles);
    fp.cycles += r.cycles;
}

/** Two fixed faulted cells, HashTable at @p seed and LFUCache at
 *  @p seed + 1, accumulated into one fingerprint. */
Fingerprint
fingerprint(RuntimeKind rk, std::uint64_t seed, Hashed how)
{
    Fingerprint fp;
    accumulate(fp, rk, WorkloadKind::HashTable, seed, how);
    accumulate(fp, rk, WorkloadKind::LFUCache, seed + 1, how);
    return fp;
}

bool
printGoldens()
{
    return std::getenv("FLEXTM_GOLDEN_PRINT") != nullptr;
}

void
printFingerprint(const Fingerprint &fp)
{
    std::printf("{%llu, %llu, %llu, %llu, %llu, %llu, 0x%llxull}",
                (unsigned long long)fp.commits,
                (unsigned long long)fp.aborts,
                (unsigned long long)fp.faultsFired,
                (unsigned long long)fp.checkedTxns,
                (unsigned long long)fp.checkedOps,
                (unsigned long long)fp.cycles,
                (unsigned long long)fp.statHash);
}

void
expectFingerprint(const Fingerprint &got, const Fingerprint &want,
                  const char *name)
{
    EXPECT_EQ(got.commits, want.commits) << name;
    EXPECT_EQ(got.aborts, want.aborts) << name;
    EXPECT_EQ(got.faultsFired, want.faultsFired) << name;
    EXPECT_EQ(got.checkedTxns, want.checkedTxns) << name;
    EXPECT_EQ(got.checkedOps, want.checkedOps) << name;
    EXPECT_EQ(got.cycles, want.cycles) << name;
    EXPECT_EQ(got.statHash, want.statHash)
        << "hashed counters changed for " << name;
}

struct Golden
{
    RuntimeKind rk;
    const char *name;
    Fingerprint want;
};

// Regenerate with FLEXTM_GOLDEN_PRINT=1 (see file comment).
const Golden kGoldens[] = {
    {RuntimeKind::FlexTmEager, "FlexTmEager",
     {192, 113, 409, 6427, 8180, 57223, 0xe8d41289a93c1d48ull}},
    {RuntimeKind::FlexTmLazy, "FlexTmLazy",
     {192, 65, 399, 6430, 8395, 61978, 0xd8ee008e636797c4ull}},
    {RuntimeKind::Cgl, "Cgl",
     {192, 0, 68, 6433, 8412, 20092, 0x8c073f02d114c5a5ull}},
    {RuntimeKind::Rstm, "Rstm",
     {192, 164, 95, 6439, 7965, 105334, 0xc05a06b20465cbd7ull}},
    {RuntimeKind::Tl2, "Tl2",
     {192, 83, 152, 6440, 8564, 99209, 0xa15361a7278f097eull}},
    {RuntimeKind::RtmF, "RtmF",
     {192, 91, 691, 6431, 8128, 90821, 0x9fba5d086fd24f6full}},
    {RuntimeKind::HyTm, "HyTm",
     {192, 174, 353, 6433, 8311, 81985, 0x4c78ababdfb7650eull}},
};

class DeterminismGolden : public ::testing::TestWithParam<Golden>
{
};

void
checkGolden(const char *name, const Fingerprint &want,
            const Fingerprint &got)
{
    if (printGoldens()) {
        std::printf("    {RuntimeKind::%s, \"%s\",\n     ", name, name);
        printFingerprint(got);
        std::printf("},\n");
        return;
    }
    expectFingerprint(got, want, name);
}

TEST_P(DeterminismGolden, FingerprintMatches)
{
    const Golden &g = GetParam();
    checkGolden(g.name, g.want, fingerprint(g.rk, 4242, Hashed::Curated));
}

INSTANTIATE_TEST_SUITE_P(AllRuntimes, DeterminismGolden,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

/** A full-dump golden.  Its own type so that PrintTo can name the
 *  runtime in the test name instead of dumping the param's bytes. */
struct DumpGolden
{
    RuntimeKind rk;
    const char *name;
    Fingerprint want;
};

void
PrintTo(const DumpGolden &g, std::ostream *os)
{
    *os << g.name;
}

// Full-dump goldens, recorded identically under the heap dispatch
// core and the retired scan-based core it replaced.
const DumpGolden kDumpGoldens[] = {
    {RuntimeKind::FlexTmEager, "FlexTmEager",
     {192, 104, 414, 6411, 8339, 54771, 0xd1f0f2eecca3df0aull}},
    {RuntimeKind::FlexTmLazy, "FlexTmLazy",
     {192, 93, 512, 6410, 8342, 50352, 0x353c3eb5a0580d73ull}},
    {RuntimeKind::Cgl, "Cgl",
     {192, 0, 74, 6422, 8324, 22418, 0xf083e245e60e4a70ull}},
    {RuntimeKind::Rstm, "Rstm",
     {192, 151, 174, 6422, 8056, 219065, 0xe767bdfdb94a285full}},
    {RuntimeKind::Tl2, "Tl2",
     {192, 101, 172, 6409, 8413, 66683, 0xfcc22f8db221e253ull}},
    {RuntimeKind::RtmF, "RtmF",
     {192, 146, 819, 6424, 8484, 133204, 0x1c852aad354364abull}},
    {RuntimeKind::HyTm, "HyTm",
     {192, 216, 351, 6417, 8408, 93026, 0xba88dde047a18045ull}},
};

class FullDumpGolden : public ::testing::TestWithParam<DumpGolden>
{
};

TEST_P(FullDumpGolden, DumpMatches)
{
    const DumpGolden &g = GetParam();
    checkGolden(g.name, g.want,
                fingerprint(g.rk, 77101, Hashed::FullDump));
}

INSTANTIATE_TEST_SUITE_P(AllRuntimes, FullDumpGolden,
                         ::testing::ValuesIn(kDumpGoldens),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

// The 54-seed chaos fault/oracle sweep folded into one full-dump
// fingerprint (recorded under both dispatch cores, like kDumpGoldens).
const Fingerprint kSweepGolden = {
    5198, 3895, 7346, 126500, 169839, 2546124, 0x94ecb8e6f13eccd6ull};

/** Every cell must also pass the serializability oracle without
 *  timing out (asserted per cell inside accumulate()). */
TEST(DeterminismGolden, ChaosSweep54Seeds)
{
    const auto &kinds = allRuntimeKinds();
    const WorkloadKind wks[] = {WorkloadKind::HashTable,
                                WorkloadKind::LFUCache,
                                WorkloadKind::HotSpot};
    Fingerprint got;
    for (unsigned i = 0; i < 54; ++i)
        accumulate(got, kinds[i % kinds.size()],
                   wks[(i / kinds.size()) % 3], 90000 + i,
                   Hashed::FullDump);
    if (printGoldens()) {
        std::printf("const Fingerprint kSweepGolden = ");
        printFingerprint(got);
        std::printf(";\n");
        return;
    }
    expectFingerprint(got, kSweepGolden, "54-seed chaos sweep");
}

/** Teeth: registering a runtime without recording its goldens (or
 *  unregistering one while its goldens linger) fails here, so a new
 *  runtime cannot silently skip the determinism contract. */
TEST(DeterminismGolden, EveryRegisteredRuntimeHasExactlyOneGolden)
{
    const auto &kinds = allRuntimeKinds();
    for (RuntimeKind rk : kinds) {
        unsigned found = 0, dumps = 0;
        for (const Golden &g : kGoldens)
            if (g.rk == rk)
                ++found;
        for (const DumpGolden &g : kDumpGoldens)
            if (g.rk == rk)
                ++dumps;
        EXPECT_EQ(found, 1u)
            << "registered runtime " << runtimeKindName(rk)
            << " must have exactly one determinism golden "
               "(regenerate with FLEXTM_GOLDEN_PRINT=1)";
        EXPECT_EQ(dumps, 1u)
            << "registered runtime " << runtimeKindName(rk)
            << " must have exactly one full-dump golden";
    }
    EXPECT_EQ(std::size(kGoldens), kinds.size())
        << "goldens recorded for unregistered runtimes";
    EXPECT_EQ(std::size(kDumpGoldens), kinds.size())
        << "full-dump goldens recorded for unregistered runtimes";
}

} // namespace
} // namespace flextm
