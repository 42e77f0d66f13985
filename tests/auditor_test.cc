/**
 * @file
 * Teeth tests for the cross-layer state auditor: each test drives the
 * machine into a consistent state, validates that a sweep is clean,
 * then plants one specific cross-layer inconsistency and asserts the
 * matching invariant fires (in collect mode, so the violation is
 * recorded instead of panicking).  A final test checks the repro
 * bundle carries enough context to replay the failure.
 *
 * These tests corrupt simulator state on purpose; every corruption
 * here is one the auditor exists to catch, so a test failure means
 * the auditor lost its teeth, not that the protocol broke.
 */

#include <gtest/gtest.h>

#include "runtime/tx_thread.hh"
#include "sim/auditor.hh"

namespace flextm
{
namespace
{

MachineConfig
auditCfg(unsigned cores = 4)
{
    MachineConfig c;
    c.cores = cores;
    c.l1Bytes = 4 * 1024;
    c.victimEntries = 4;
    c.memoryBytes = 16u << 20;
    c.auditor = AuditLevel::Transition;
    return c;
}

class AuditorTeeth : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        m = std::make_unique<Machine>(auditCfg());
        aud = m->memsys().auditor();
        // FLEXTM_AUDITOR=off would disable the subject under test.
        if (!aud)
            GTEST_SKIP() << "auditor disabled by environment";
        aud->setCollect(true);
        base = m->memory().allocate(64 * lineBytes, lineBytes);
        tsw0 = m->memory().allocate(lineBytes, lineBytes);
        tsw1 = m->memory().allocate(lineBytes, lineBytes);
    }

    /** Plain store of @p v at @p a from @p c (charges no test time). */
    void
    store(CoreId c, Addr a, std::uint64_t v)
    {
        now += m->memsys().access(c, AccessType::Store, a, 8, &v, now)
                   .latency;
    }

    std::uint64_t
    load(CoreId c, Addr a)
    {
        std::uint64_t v = 0;
        now += m->memsys().access(c, AccessType::Load, a, 8, &v, now)
                   .latency;
        return v;
    }

    /** Put @p core inside a hardware transaction the auditor knows
     *  about, with an Active TSW it can peek. */
    void
    beginTx(CoreId core, Addr tsw)
    {
        store(core, tsw, TswActive);
        HwContext &ctx = m->context(core);
        ctx.rsig.clear();
        ctx.wsig.clear();
        ctx.cst.clearAll();
        ctx.inTx = true;
        aud->noteTxBegin(core, static_cast<ThreadId>(core), tsw,
                         TswActive, /*tracks_csts=*/true);
    }

    /** Plant @p s on core @p c's cached copy of @p a. */
    void
    setLineState(CoreId c, Addr a, LineState s)
    {
        L1Line *l = m->memsys().l1(c).probe(a);
        ASSERT_NE(l, nullptr);
        m->memsys().l1(c).setState(*l, s);
    }

    /** The setup must be clean before a corruption is planted. */
    void
    expectClean(const char *what)
    {
        aud->clearViolations();
        aud->sweep(now, what);
        ASSERT_TRUE(aud->violations().empty())
            << aud->violations()[0].invariant << ": "
            << aud->violations()[0].detail;
    }

    /** One violation of @p invariant was recorded. */
    void
    expectViolation(const char *invariant)
    {
        aud->clearViolations();
        aud->sweep(now, "teeth");
        ASSERT_FALSE(aud->violations().empty())
            << "corruption not detected";
        EXPECT_EQ(aud->violations()[0].invariant, invariant);
    }

    std::unique_ptr<Machine> m;
    StateAuditor *aud = nullptr;
    Addr base = 0, tsw0 = 0, tsw1 = 0;
    Cycles now = 0;
};

TEST_F(AuditorTeeth, CleanMachineSweepsClean)
{
    for (unsigned i = 0; i < 16; ++i) {
        store(i % 4, base + i * 8, i);
        load((i + 1) % 4, base + i * 8);
    }
    expectClean("mixed plain traffic");
    EXPECT_GT(aud->sweepsRun(), 0u);
}

TEST_F(AuditorTeeth, I1CatchesDirectoryLosingExclusiveOwner)
{
    store(0, base, 7);  // core 0 ends up M/E exclusive
    expectClean("exclusive store");
    L2Line *l2l = m->memsys().l2().probe(base);
    ASSERT_NE(l2l, nullptr);
    l2l->dir.exclusive = invalidCore;  // directory forgets the owner
    l2l->dir.owners = 0;
    expectViolation("I1 dir-l1");
}

// The two cross-copy I1 rules: every copy below passes its own
// directory rule, so only the exclusivity check can catch them.
TEST_F(AuditorTeeth, I1CatchesTwoModifiedCopiesBothNamedOwners)
{
    const Addr a = base + 4 * lineBytes;
    load(0, a);
    load(1, a);
    expectClean("two sharers");
    L2Line *l2l = m->memsys().l2().probe(a);
    ASSERT_NE(l2l, nullptr);
    setLineState(0, a, LineState::M);
    setLineState(1, a, LineState::M);
    l2l->dir.clear();
    l2l->dir.owners = 0x3;  // both named: each M copy passes alone
    expectViolation("I1 dir-l1");
    ASSERT_EQ(aud->violations().size(), 1u);
    EXPECT_NE(aud->violations()[0].detail.find(
                  "multiple non-speculative (M/E) holders"),
              std::string::npos)
        << aud->violations()[0].detail;
}

TEST_F(AuditorTeeth, I1CatchesSharerBesideExclusiveCopy)
{
    const Addr a = base + 5 * lineBytes;
    load(0, a);
    load(1, a);
    expectClean("two sharers");
    L2Line *l2l = m->memsys().l2().probe(a);
    ASSERT_NE(l2l, nullptr);
    ASSERT_EQ(l2l->dir.sharers & 0x3, 0x3u);
    // Core 0 silently regains E; the directory agrees, and core 1's
    // sharer bit stays set, so both copies pass their own rules.
    setLineState(0, a, LineState::E);
    l2l->dir.exclusive = 0;
    expectViolation("I1 dir-l1");
    ASSERT_EQ(aud->violations().size(), 1u);
    EXPECT_NE(aud->violations()[0].detail.find("plain S sharer"),
              std::string::npos)
        << aud->violations()[0].detail;
    EXPECT_NE(aud->violations()[0].detail.find("with an M/E copy"),
              std::string::npos)
        << aud->violations()[0].detail;
}

TEST_F(AuditorTeeth, I2CatchesL1LineWithoutL2Backing)
{
    load(1, base + lineBytes);
    expectClean("shared load");
    L1Line *l = m->memsys().l1(1).probe(base + lineBytes);
    ASSERT_NE(l, nullptr);
    // Retag the cached line to an address the L2 never saw.
    l->base = base + 48 * lineBytes;
    expectViolation("I2 inclusion");
}

TEST_F(AuditorTeeth, I3CatchesSignatureLosingARead)
{
    beginTx(0, tsw0);
    std::uint64_t v = 0;
    now += m->memsys()
               .access(0, AccessType::TLoad, base, 8, &v, now)
               .latency;
    expectClean("transactional read");
    m->context(0).rsig.clear();  // signature silently wiped
    expectViolation("I3 sig-superset");
}

TEST_F(AuditorTeeth, I4CatchesCstBitWithoutConflictEvent)
{
    beginTx(0, tsw0);
    expectClean("fresh transaction");
    m->context(0).cst.rw.set(2);  // no recorded conflict justifies it
    expectViolation("I4 cst-history");
}

TEST_F(AuditorTeeth, I5CatchesBrokenDuality)
{
    beginTx(0, tsw0);
    beginTx(1, tsw1);
    // A symmetric conflict event arms the pair ...
    aud->noteCstSet(0, CstKind::Rw, std::uint64_t{1} << 1);
    aud->noteCstSet(1, CstKind::Wr, std::uint64_t{1} << 0);
    m->context(0).cst.rw.set(1);
    m->context(1).cst.wr.set(0);
    expectClean("symmetric conflict");
    // ... then one side's reciprocal bit silently vanishes.
    m->context(1).cst.wr.clearBit(0);
    expectViolation("I5 cst-duality");
}

TEST_F(AuditorTeeth, I5SkipsOneSidedSummaryTrapBits)
{
    beginTx(0, tsw0);
    beginTx(1, tsw1);
    // A summary-signature trap names core 1 one-sidedly: no
    // reciprocal bit exists anywhere, and that is legal.
    aud->noteCstSet(0, CstKind::Rw, std::uint64_t{1} << 1,
                    /*symmetric=*/false);
    m->context(0).cst.rw.set(1);
    expectClean("one-sided summary-trap bit");
}

TEST_F(AuditorTeeth, I6CatchesOtEntryStillCachedInL1)
{
    OverflowTable ot(2048, 4);
    store(2, base + 2 * lineBytes, 9);
    HwContext &ctx = m->context(2);
    ctx.ot = &ot;
    std::uint8_t data[lineBytes] = {};
    ot.insert(base + 2 * lineBytes, base + 2 * lineBytes, data);
    // The line is simultaneously valid in core 2's L1: the eviction
    // that was supposed to hand it to the OT never invalidated it.
    expectViolation("I6 ot-exclusive");
    ctx.ot = nullptr;
}

TEST_F(AuditorTeeth, I7CatchesMarkedLineDroppedWithoutAlert)
{
    beginTx(3, tsw1);
    now += m->memsys().aload(3, base + 3 * lineBytes, now);
    expectClean("aloaded line");
    L1Line *l = m->memsys().l1(3).probe(base + 3 * lineBytes);
    ASSERT_NE(l, nullptr);
    ASSERT_TRUE(l->aBit);
    l->aBit = false;  // the watch evaporates, no alert raised
    expectViolation("I7 aou-live");
}

TEST_F(AuditorTeeth, DoomedTransactionIsExemptFromDuality)
{
    beginTx(0, tsw0);
    beginTx(1, tsw1);
    aud->noteCstSet(0, CstKind::Rw, std::uint64_t{1} << 1);
    m->context(0).cst.rw.set(1);
    // Core 1 never recorded the reciprocal bit, but core 0's TSW has
    // already been CAS'd to Aborted: the asymmetry is the normal
    // kill-window decay, not a bug.
    store(2, tsw0, TswAborted);
    aud->clearViolations();
    aud->sweep(now, "doomed exemption");
    for (const AuditViolation &v : aud->violations())
        EXPECT_NE(v.invariant, "I5 cst-duality") << v.detail;
}

TEST_F(AuditorTeeth, BundleCarriesReproContext)
{
    store(0, base, 7);
    L2Line *l2l = m->memsys().l2().probe(base);
    ASSERT_NE(l2l, nullptr);
    l2l->dir.exclusive = invalidCore;
    l2l->dir.owners = 0;
    aud->clearViolations();
    aud->sweep(now, "bundle check");
    ASSERT_FALSE(aud->violations().empty());
    const std::string &b = aud->lastBundle();
    EXPECT_NE(b.find("invariant: I1 dir-l1"), std::string::npos);
    EXPECT_NE(b.find("config:"), std::string::npos);
    EXPECT_NE(b.find("seed="), std::string::npos);
    EXPECT_NE(b.find("window:"), std::string::npos);
    EXPECT_NE(b.find("last events"), std::string::npos);
}

// The auditor must never alter simulated behaviour: the same traffic
// with the auditor off and at transition level lands on identical
// cycle counts (the sweep is host-side only).
TEST(AuditorTiming, SweepsChargeNoSimulatedCycles)
{
    Cycles with[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
        MachineConfig cfg = auditCfg();
        cfg.auditor =
            pass ? AuditLevel::Transition : AuditLevel::Off;
        Machine m(cfg);
        if (pass && !m.memsys().auditor())
            GTEST_SKIP() << "auditor disabled by environment";
        if (!pass && m.memsys().auditor())
            GTEST_SKIP() << "auditor forced on by environment";
        const Addr base =
            m.memory().allocate(32 * lineBytes, lineBytes);
        Cycles now = 0;
        Rng rng(1234);
        for (unsigned step = 0; step < 4000; ++step) {
            const CoreId c = static_cast<CoreId>(rng.nextInt(4));
            const Addr a = base + rng.nextInt(32) * lineBytes;
            std::uint64_t v = step;
            if (rng.percent(50))
                now += m.memsys()
                           .access(c, AccessType::Store, a, 8, &v,
                                   now)
                           .latency;
            else
                now += m.memsys()
                           .access(c, AccessType::Load, a, 8, &v, now)
                           .latency;
        }
        with[pass] = now;
    }
    EXPECT_EQ(with[0], with[1]);
}

} // anonymous namespace
} // namespace flextm
