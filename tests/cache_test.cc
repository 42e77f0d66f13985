/**
 * @file
 * L1 / L2 cache structure unit tests: set indexing, LRU, victim
 * buffer behaviour, flash commit/abort over the T bits, and
 * directory entry bookkeeping.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "runtime/machine.hh"

namespace flextm
{
namespace
{

// ---- L1 ---------------------------------------------------------------

TEST(L1CacheTest, GeometryFromConfig)
{
    L1Cache l1(32 * 1024, 2, 32, false);
    EXPECT_EQ(l1.sets(), 32u * 1024 / (64 * 2));
    EXPECT_EQ(l1.ways(), 2u);
}

TEST(L1CacheTest, AllocateAndProbe)
{
    L1Cache l1(4096, 2, 4, false);
    L1Line &l = l1.allocate(0x1000, 1, [](L1Line &) {
        FAIL() << "no eviction expected";
    });
    l1.setState(l, LineState::S);
    EXPECT_EQ(l1.probe(0x1008), &l);  // same line
    EXPECT_EQ(l1.probe(0x1040), nullptr);
}

TEST(L1CacheTest, SetConflictGoesToVictimBuffer)
{
    // 4096B, 2-way -> 32 sets; stride 32*64 = 2048.
    L1Cache l1(4096, 2, 4, false);
    const Addr stride = 32 * 64;
    for (unsigned i = 0; i < 4; ++i) {
        L1Line &l = l1.allocate(
            0x10000 + i * stride, i,
            [](L1Line &) { FAIL() << "victim buffer absorbs"; });
        l1.setState(l, LineState::S);
    }
    // All four still visible (2 in set, 2 in victim buffer).
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_NE(l1.probe(0x10000 + i * stride), nullptr) << i;
}

TEST(L1CacheTest, VictimOverflowEvictsForReal)
{
    L1Cache l1(4096, 2, 4, false);
    const Addr stride = 32 * 64;
    std::vector<Addr> evicted;
    for (unsigned i = 0; i < 10; ++i) {
        L1Line &l = l1.allocate(0x10000 + i * stride, i,
                                [&](L1Line &v) {
                                    evicted.push_back(v.base);
                                });
        l1.setState(l, LineState::S);
    }
    // 2 ways + 4 victim entries = 6 resident; 4 evicted.
    EXPECT_EQ(evicted.size(), 4u);
}

TEST(L1CacheTest, EvictionPrefersNonSpeculativeLines)
{
    L1Cache l1(4096, 2, 2, false);
    const Addr stride = 32 * 64;
    // Two TMI lines (oldest) then non-speculative fills.
    std::vector<LineState> evicted_states;
    for (unsigned i = 0; i < 8; ++i) {
        L1Line &l = l1.allocate(0x10000 + i * stride, i,
                                [&](L1Line &v) {
                                    evicted_states.push_back(v.state());
                                });
        l1.setState(l, i < 2 ? LineState::TMI : LineState::S);
    }
    ASSERT_FALSE(evicted_states.empty());
    // The first victims must be S lines despite TMI being older.
    EXPECT_EQ(evicted_states.front(), LineState::S);
}

TEST(L1CacheTest, UnboundedVictimNeverEvicts)
{
    L1Cache l1(4096, 2, 2, true);
    const Addr stride = 32 * 64;
    for (unsigned i = 0; i < 50; ++i) {
        L1Line &l = l1.allocate(0x10000 + i * stride, i,
                                [](L1Line &) {
                                    FAIL() << "unbounded mode";
                                });
        l1.setState(l, LineState::TMI);
    }
    EXPECT_EQ(l1.countState(LineState::TMI), 50u);
}

TEST(L1CacheTest, FlashCommitRevertsTbits)
{
    L1Cache l1(4096, 2, 4, false);
    auto &a = l1.allocate(0x1000, 1, [](L1Line &) {});
    l1.setState(a, LineState::TMI);
    auto &b = l1.allocate(0x2000, 2, [](L1Line &) {});
    l1.setState(b, LineState::TI);
    auto &c = l1.allocate(0x3000, 3, [](L1Line &) {});
    l1.setState(c, LineState::M);
    l1.flashCommit();
    EXPECT_EQ(l1.probe(0x1000)->state(), LineState::M);
    EXPECT_EQ(l1.probe(0x2000), nullptr);  // TI -> I
    EXPECT_EQ(l1.probe(0x3000)->state(), LineState::M);
}

TEST(L1CacheTest, FlashAbortDropsSpeculation)
{
    L1Cache l1(4096, 2, 4, false);
    auto &a = l1.allocate(0x1000, 1, [](L1Line &) {});
    l1.setState(a, LineState::TMI);
    auto &b = l1.allocate(0x2000, 2, [](L1Line &) {});
    l1.setState(b, LineState::TI);
    auto &c = l1.allocate(0x3000, 3, [](L1Line &) {});
    l1.setState(c, LineState::E);
    l1.flashAbort();
    EXPECT_EQ(l1.probe(0x1000), nullptr);
    EXPECT_EQ(l1.probe(0x2000), nullptr);
    EXPECT_EQ(l1.probe(0x3000)->state(), LineState::E);
}

TEST(L1CacheTest, LruVictimSelection)
{
    L1Cache l1(4096, 2, 1, false);
    const Addr stride = 32 * 64;
    auto &a = l1.allocate(0x10000 + 0 * stride, 10, [](L1Line &) {});
    l1.setState(a, LineState::S);
    auto &b = l1.allocate(0x10000 + 1 * stride, 20, [](L1Line &) {});
    l1.setState(b, LineState::S);
    // Touch the older line so the other becomes LRU.
    l1.find(0x10000 + 0 * stride, 30);
    L1Line &c = l1.allocate(0x10000 + 2 * stride, 40, [](L1Line &) {});
    l1.setState(c, LineState::S);
    // b (lastUse 20) was displaced into the victim buffer; all three
    // still probe-able.
    EXPECT_NE(l1.probe(0x10000 + 1 * stride), nullptr);
}

TEST(L1CacheTest, WalkSeesStateChangesMadeByItsCallback)
{
    // 64 sets, 1 way: six lines in six distinct frames.
    L1Cache l1(4096, 1, 4, false);
    for (unsigned i = 0; i < 6; ++i)
        l1.setState(l1.allocate(0x1000 + i * 64, i, [](L1Line &) {}),
                    LineState::S);
    std::vector<Addr> seen;
    l1.forEachValid([&](L1Line &l) {
        seen.push_back(l.base);
        if (L1Line *next = l1.probe(l.base + 64))
            l1.invalidate(*next);
    });
    EXPECT_EQ(seen, (std::vector<Addr>{0x1000, 0x1080, 0x1100}));
}

// Randomized: the live/spec frame masks must make forEachValid and
// forEachSpeculative visit exactly the lines a brute-force scan of
// every frame finds, in the same order, after any operation mix.

struct L1Geometry
{
    std::size_t bytes;
    unsigned ways, victims;
    bool unbounded;
};

/** Keeps the listed test names free of struct padding bytes. */
void
PrintTo(const L1Geometry &g, std::ostream *os)
{
    *os << g.bytes << "B/" << g.ways << "-way/" << g.victims
        << (g.unbounded ? "+unbounded" : "") << " victims";
}

class L1CacheWalkTest : public ::testing::TestWithParam<L1Geometry>
{
  protected:
    using Lines = std::vector<const L1Line *>;

    /** Brute force: every frame in index order, then the victim
     *  buffer, keeping the lines @p keep accepts. */
    template <typename Keep>
    static Lines
    scan(const L1Cache &l1, Keep keep)
    {
        Lines out;
        for (const L1Line &l : l1.frames())
            if (keep(l))
                out.push_back(&l);
        for (const L1Line &l : l1.victimBuffer())
            if (keep(l))
                out.push_back(&l);
        return out;
    }

    static bool
    spec(const L1Line &l)
    {
        return l.state() == LineState::TMI || l.state() == LineState::TI;
    }

    static void
    expectWalksExact(L1Cache &l1, unsigned step)
    {
        Lines valid, specs;
        l1.forEachValid([&](L1Line &l) { valid.push_back(&l); });
        l1.forEachSpeculative([&](L1Line &l) { specs.push_back(&l); });
        ASSERT_EQ(valid, scan(l1, [](const L1Line &l) {
                      return l.valid();
                  })) << "forEachValid after step " << step;
        ASSERT_EQ(specs, scan(l1, spec))
            << "forEachSpeculative after step " << step;
        for (LineState s : {LineState::M, LineState::E, LineState::S,
                            LineState::TI, LineState::TMI}) {
            const auto n = scan(l1, [s](const L1Line &l) {
                               return l.state() == s;
                           }).size();
            ASSERT_EQ(l1.countState(s), n)
                << lineStateName(s) << " after step " << step;
        }
    }

    /** The line evictOneInState(@p s) must pick: lowest lastUse,
     *  first in walk order on ties. */
    static const L1Line *
    expectedLru(const L1Cache &l1, LineState s)
    {
        const L1Line *pick = nullptr;
        for (const L1Line *l :
             scan(l1, [s](const L1Line &l) { return l.state() == s; }))
            if (!pick || l->lastUse < pick->lastUse)
                pick = l;
        return pick;
    }
};

TEST_P(L1CacheWalkTest, MasksMatchBruteForceScan)
{
    const L1Geometry g = GetParam();
    L1Cache l1(g.bytes, g.ways, g.victims, g.unbounded);
    std::mt19937_64 rng(0x11ca5e + g.bytes + g.ways);
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const LineState states[] = {LineState::M, LineState::E, LineState::S,
                                LineState::TI, LineState::TMI};
    const auto randomState = [&] { return states[pick(5)]; };
    // Three lines per frame compete for the sets.
    const std::size_t pool = 3 * l1.frames().size();
    const auto resident = [&]() -> L1Line * {
        const Lines v = scan(l1, [](const L1Line &l) { return l.valid(); });
        return v.empty() ? nullptr : l1.probe(v[pick(v.size())]->base);
    };

    Cycles now = 0;
    unsigned evictions = 0, forced = 0;
    for (unsigned step = 0; step < 4000; ++step) {
        now += pick(2);  // leave LRU ties for the tie-break rule
        const std::size_t op = pick(100);
        if (op < 40) {
            const Addr a = 0x100000 + pick(pool) * lineBytes;
            if (L1Line *l = l1.find(a, now)) {
                l1.setState(*l, randomState());
            } else {
                L1Line &fr = l1.allocate(a, now, [&](L1Line &v) {
                    ASSERT_TRUE(v.valid());
                    ++evictions;
                });
                l1.setState(fr, randomState());
            }
        } else if (op < 55) {
            if (L1Line *l = resident())
                l1.setState(*l, randomState());
        } else if (op < 65) {
            if (L1Line *l = resident())
                l1.invalidate(*l);
        } else if (op < 70) {
            l1.flashCommit();
        } else if (op < 75) {
            l1.flashAbort();
        } else if (op < 90) {
            const LineState s = randomState();
            const L1Line *want = expectedLru(l1, s);
            const bool leave_valid = pick(5) == 0;
            const bool hit = l1.evictOneInState(s, [&](L1Line &v) {
                EXPECT_EQ(&v, want);
                if (!leave_valid)
                    l1.invalidate(v);
            });
            EXPECT_EQ(hit, want != nullptr);
            forced += hit;
        } else {
            // The context-switch flush: TMI/TI -> I from inside the
            // speculative walk.
            l1.forEachSpeculative(
                [&](L1Line &l) { l1.setState(l, LineState::I); });
        }
        expectWalksExact(l1, step);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(forced, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, L1CacheWalkTest,
    ::testing::Values(L1Geometry{1024, 1, 1, false},  // 16 frames
                      L1Geometry{2048, 2, 4, false},  // 32 frames
                      L1Geometry{8192, 2, 2, false},  // 128: two words
                      L1Geometry{4096, 4, 3, true}),  // unbounded
    [](const ::testing::TestParamInfo<L1Geometry> &info) {
        return std::to_string(info.param.bytes) + "B" +
               std::to_string(info.param.ways) + "way" +
               (info.param.unbounded ? "Unbounded" : "");
    });

// ---- L2 ---------------------------------------------------------------

TEST(L2CacheTest, AllocateFindRoundTrip)
{
    L2Cache l2(1 << 20, 8, 4);
    L2Line &l = l2.allocate(0x4000, 1, [](L2Line &) {});
    EXPECT_TRUE(l.valid);
    EXPECT_EQ(l2.find(0x4010, 2), &l);
}

TEST(L2CacheTest, EvictionPrefersUncachedLines)
{
    // 8 KB, 2-way -> 64 sets; stride 64*64 = 4096.
    L2Cache l2(8192, 2, 1);
    L2Line &a = l2.allocate(0x10000, 1, [](L2Line &) {});
    a.dir.sharers = 0x3;  // cached in two L1s
    L2Line &b = l2.allocate(0x10000 + 4096, 2, [](L2Line &) {});
    b.dir.clear();  // no L1 copies
    const Addr b_base = b.base;

    std::vector<Addr> evicted;
    l2.allocate(0x10000 + 2 * 4096, 3,
                [&](L2Line &v) { evicted.push_back(v.base); });
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], b_base);  // the uncached one went
}

TEST(L2CacheTest, DirEntryBookkeeping)
{
    DirEntry d;
    EXPECT_FALSE(d.anyCached());
    d.sharers = 0x5;
    EXPECT_TRUE(d.anyCached());
    d.clear();
    d.exclusive = 3;
    EXPECT_TRUE(d.anyCached());
    d.clear();
    d.owners = 0x10;
    EXPECT_TRUE(d.anyCached());
}

TEST(L2CacheTest, BankMapping)
{
    L2Cache l2(1 << 20, 8, 4);
    // Consecutive lines round-robin over banks.
    EXPECT_NE(l2.bank(0), l2.bank(64));
    EXPECT_EQ(l2.bank(0), l2.bank(4 * 64));
}

// ---- Writeback economy ------------------------------------------------

/** Dirty a line, then walk enough same-set lines to evict it from a
 *  tiny L2.  Returns the machine so the caller can read counters. */
std::unique_ptr<Machine>
forceDirtyL2Eviction(MemBackendKind backend)
{
    MachineConfig cfg;
    cfg.cores = 1;
    cfg.l2Bytes = 8192;
    cfg.l2Ways = 2;
    cfg.l2Banks = 1;
    cfg.memoryBytes = 4u << 20;
    cfg.memBackend = backend;
    auto m = std::make_unique<Machine>(cfg);

    const unsigned sets =
        static_cast<unsigned>(cfg.l2Bytes / lineBytes / cfg.l2Ways);
    const Addr stride = Addr{sets} * lineBytes;
    const Addr base = m->memory().allocate(8 * stride, lineBytes);

    Cycles now = 0;
    std::uint64_t v = 0xd1;
    // Dirty the victim-to-be in the L1 (M state)...
    now += m->memsys()
               .access(0, AccessType::Store, base, 8, &v, now)
               .latency;
    // ...then overrun its L2 set so the eviction recalls the dirty
    // copy and has to write it back to memory.
    for (unsigned i = 1; i <= 4; ++i) {
        now += m->memsys()
                   .access(0, AccessType::Load, base + i * stride, 8,
                           &v, now)
                   .latency;
    }
    EXPECT_GT(m->stats().counterValue("l2.evictions"), 0u);
    return m;
}

TEST(WritebackEconomy, DirtyL2EvictionsReachTheDramBackend)
{
    auto m = forceDirtyL2Eviction(MemBackendKind::Dram);
    // The dirty eviction was posted to the backend's write queue.
    EXPECT_GT(m->stats().counterValue("dram.writes"), 0u);
}

TEST(WritebackEconomy, FixedBackendKeepsWritebacksFree)
{
    auto m = forceDirtyL2Eviction(MemBackendKind::Fixed);
    // Legacy model: no DRAM machinery, and nothing is ever charged
    // for the writeback (the goldens pin overall timing).
    EXPECT_EQ(m->stats().counterValue("dram.writes"), 0u);
    EXPECT_EQ(m->stats().counterValue("dram.reads"), 0u);
}

} // anonymous namespace
} // namespace flextm
