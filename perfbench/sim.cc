/**
 * @file
 * The simulator workloads, sim-checked and sim-paper, and the
 * phase-split cell driver they share.
 *
 * The cell driver composes the repository's public calls the way its own
 * harnesses do - runFaultedExperiment for sim-checked,
 * runExperiment for sim-paper - so a cell simulates exactly what
 * those harnesses simulate, but each phase (Machine build, warm-up,
 * parallel phase, structural verify, oracle validation) is timed on
 * its own.  driftGuard() checks that the two compositions still
 * agree.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>

#include "os/tx_os.hh"
#include "perfbench/bench.hh"
#include "runtime/machine.hh"
#include "sim/auditor.hh"
#include "sim/oracle.hh"
#include "workloads/fault_harness.hh"
#include "workloads/workload.hh"

using namespace flextm;

namespace perfbench
{

namespace
{

/** One simulator experiment. */
struct CellSpec
{
    RuntimeKind rk;
    WorkloadKind wk;
    std::uint64_t seed;
    unsigned threads;
    unsigned ops;
    /**
     * sim-checked composition (runFaultedExperiment's): chaos
     * FaultPlan plus TxOs faults, oracle replay, auditor at every
     * transaction boundary, flat-latency memory, and the parallel
     * threads created before the warm-up.  Otherwise sim-paper's
     * (runExperiment's on the figure benches' machine): banked DRAM,
     * no faults or checkers, threads created after the warm-up.
     */
    bool checked;
};

MachineConfig
machineFor(const CellSpec &c)
{
    MachineConfig cfg;
    cfg.seed = c.seed;
    cfg.cores = std::max(cfg.cores, c.threads);
    if (c.checked) {
        cfg.fault = FaultConfig::chaos(c.seed);
        cfg.auditor = AuditLevel::TxnBoundary;
    } else {
        cfg.memBackend = MemBackendKind::Dram;
        cfg.memoryBytes = 128u << 20;
    }
    return cfg;
}

/** What one cell produced, with the host time of each phase. */
struct CellResult
{
    bool ok = true;
    std::string message;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t checkedOps = 0;
    Cycles cycles = 0;
    /** L1 accesses made during the parallel phase. */
    std::uint64_t parallelL1 = 0;

    double buildS = 0, warmupS = 0, parallelS = 0, verifyS = 0,
           validateS = 0, cellS = 0;

    std::map<std::string, std::uint64_t> counters;
    std::uint64_t sweeps = 0, faultsFired = 0, pickCalls = 0;
    Histogram commitLatency, cstConflicts, dramQueue;
    /** Host microseconds of each Workload::runOne call. */
    std::vector<double> txnUs;
};

std::uint64_t
l1Accesses(Machine &m)
{
    return m.stats().counterValue("l1.hits") +
           m.stats().counterValue("l1.misses");
}

void
runPhases(const CellSpec &c, SpanLog *log, std::int32_t cellSpan,
          CellResult &r)
{
    auto phase = [&](const char *layer, double &secs, auto &&body) {
        const auto b = Clock::now();
        body();
        const auto e = Clock::now();
        secs = std::chrono::duration<double>(e - b).count();
        if (log)
            log->add(layer, cellSpan, b, e);
    };

    // Declared in runFaultedExperiment's order, so they are torn
    // down in the same order too.
    std::unique_ptr<Machine> m;
    TxOracle oracle;
    std::unique_ptr<RuntimeFactory> f;
    std::unique_ptr<TxOs> os;
    std::unique_ptr<Workload> wl;
    std::vector<std::unique_ptr<TxThread>> ts;
    std::unique_ptr<TxThread> t0;

    auto makeThreads = [&] {
        for (unsigned i = 0; i < c.threads; ++i) {
            ts.push_back(f->makeThread(1 + i, i));
            if (!os)
                continue;
            if (auto *ft = dynamic_cast<FlexTmThread *>(ts.back().get()))
                os->installFaultHook(*ft, *m->faultPlan());
        }
    };

    phase("build", r.buildS, [&] {
        m = std::make_unique<Machine>(machineFor(c));
        if (c.checked) {
            oracle.setContext("seed=" + std::to_string(c.seed) +
                              " runtime=" + runtimeKindName(c.rk) +
                              " workload=" + workloadKindName(c.wk));
            m->setOracle(&oracle);
        }
        f = std::make_unique<RuntimeFactory>(*m, c.rk);
        if (c.checked && f->flexGlobals() && m->faultPlan())
            os = std::make_unique<TxOs>(*m, *f->flexGlobals());
        wl = makeWorkload(c.wk);
        if (c.checked)
            makeThreads();
        t0 = f->makeThread(0, 0);
    });

    phase("warm-up", r.warmupS, [&] {
        Workload *w = wl.get();
        TxThread *tp = t0.get();
        m->scheduler().spawn(0, [w, tp] { w->setup(*tp); });
        m->run();
        t0.reset();
    });
    const Cycles setupEnd = m->scheduler().maxClock();
    // Commit latency and CST populations describe the parallel phase.
    m->stats().histogram("tx.commit_latency").clear();
    m->stats().histogram("flextm.tx_conflicts").clear();
    const std::uint64_t l1Before = l1Accesses(*m);

    r.txnUs.reserve(c.ops);
    phase("parallel", r.parallelS, [&] {
        if (!c.checked)
            makeThreads();
        std::uint64_t issued = 0;
        std::vector<double> *lat = &r.txnUs;
        for (unsigned i = 0; i < c.threads; ++i) {
            TxThread *t = ts[i].get();
            Workload *w = wl.get();
            const unsigned total = c.ops;
            const ThreadId tid = m->scheduler().spawn(
                i, [t, w, &issued, total, lat] {
                    while (issued < total) {
                        ++issued;
                        const auto b = Clock::now();
                        w->runOne(*t);
                        lat->push_back(
                            std::chrono::duration<double, std::micro>(
                                Clock::now() - b)
                                .count());
                    }
                });
            m->scheduler().thread(tid).syncClock(setupEnd);
        }
        m->run();
    });
    r.cycles = m->scheduler().maxClock() - setupEnd;
    r.parallelL1 = l1Accesses(*m) - l1Before;

    phase("verify", r.verifyS, [&] {
        Workload *w = wl.get();
        TxThread *tp = ts[0].get();
        const ThreadId tid =
            m->scheduler().spawn(0, [w, tp] { w->verify(*tp); });
        m->scheduler().thread(tid).syncClock(m->scheduler().maxClock());
        m->run();
    });
    for (const auto &t : ts) {
        r.commits += t->commits();
        r.aborts += t->aborts();
    }

    if (c.checked) {
        phase("validate", r.validateS, [&] {
            Machine *mp = m.get();
            const TxOracle::Report rep =
                oracle.validate([mp](Addr a, void *out, unsigned s) {
                    mp->memsys().peek(a, out, s);
                });
            r.ok = rep.ok;
            r.message = rep.message;
            r.checkedOps = rep.checkedOps;
        });
    }

    m->stats().forEachCounter(
        [&r](const std::string &n, std::uint64_t v) { r.counters[n] = v; });
    r.commitLatency = m->stats().histogram("tx.commit_latency");
    r.cstConflicts = m->stats().histogram("flextm.tx_conflicts");
    r.dramQueue = m->stats().histogram("dram.queue_latency");
    if (StateAuditor *a = m->memsys().auditor())
        r.sweeps = a->sweepsRun();
    if (FaultPlan *fp = m->faultPlan()) {
        r.faultsFired = fp->totalFired();
        r.pickCalls = fp->pickCalls();
    }
}

CellResult
runCell(const CellSpec &c, SpanLog *log)
{
    CellResult r;
    const auto b = Clock::now();
    const std::int32_t span = log ? log->open("cell", -1, b) : -1;
    runPhases(c, log, span, r);
    const auto e = Clock::now();
    r.cellS = std::chrono::duration<double>(e - b).count();
    if (log)
        log->close(span, e);
    return r;
}

/** The frozen perf matrix's runtimes and workloads (bench/perf_sim.cc). */
constexpr RuntimeKind kCheckedRuntimes[] = {
    RuntimeKind::FlexTmEager, RuntimeKind::FlexTmLazy,
    RuntimeKind::Cgl,         RuntimeKind::Rstm,
    RuntimeKind::Tl2,         RuntimeKind::RtmF,
};
constexpr WorkloadKind kCheckedWorkloads[] = {
    WorkloadKind::HashTable,
    WorkloadKind::LFUCache,
    WorkloadKind::RBTree,
};

/**
 * sim-checked cells.  Seed 1 gives the frozen matrix's cell seeds
 * (7000 + ...); every other seed shifts the whole block by 1000 per
 * step, so two seeds never share a cell.
 */
std::vector<CellSpec>
checkedCells(std::uint64_t seed)
{
    const std::uint64_t base = 7000 + (seed - 1) * 1000;
    std::vector<CellSpec> cells;
    std::uint64_t r = 0;
    for (RuntimeKind rk : kCheckedRuntimes) {
        std::uint64_t w = 0;
        for (WorkloadKind wk : kCheckedWorkloads) {
            for (std::uint64_t k = 0; k < 3; ++k)
                cells.push_back(
                    {rk, wk, base + (r * 8 + w) * 3 + k, 4, 96, true});
            ++w;
        }
        ++r;
    }
    return cells;
}

/** sim-paper's workloads and their operation counts: at least ten
 *  operations per simulated thread, and a pass of 2-3 host seconds
 *  (Release build, 4-vCPU Xeon VM) of which the parallel phase takes
 *  over 80%. */
struct PaperWorkload
{
    WorkloadKind wk;
    unsigned ops;
};
constexpr PaperWorkload kPaperWorkloads[] = {
    {WorkloadKind::VacationHigh, 320},
    {WorkloadKind::Delaunay, 160},
    {WorkloadKind::LFUCache, 480},
};

std::vector<CellSpec>
paperCells(std::uint64_t seed)
{
    std::vector<CellSpec> cells;
    for (RuntimeKind rk : allRuntimeKinds()) {
        for (const PaperWorkload &pw : kPaperWorkloads)
            cells.push_back({rk, pw.wk,
                             seed * 1000 + cells.size() + 1, 16,
                             pw.ops, false});
    }
    return cells;
}

/** Identity of a pass's simulated work: every pass must repeat it. */
struct Totals
{
    std::uint64_t cycles = 0, commits = 0, aborts = 0, checkedOps = 0;
    bool operator==(const Totals &) const = default;
};

/** Host-side figures of one pass. */
struct PassTimes
{
    double wall = 0, build = 0, warmup = 0, parallel = 0, verify = 0,
           validate = 0, cellSelf = 0, spanned = 0;
    double commitsPerS = 0, mcyclesPerS = 0, nsPerL1 = 0;
    double txnP50 = 0, txnP99 = 0;
};

/** Pooled percentiles over several cells' histograms: each cell
 *  contributes its distribution sampled at 1000 quantiles, weighted
 *  by its sample count. */
class HistPool
{
  public:
    void
    add(const Histogram &h)
    {
        if (h.count() == 0)
            return;
        max_ = std::max(max_, h.max());
        const double w = static_cast<double>(h.count()) / kPoints;
        for (unsigned q = 0; q < kPoints; ++q)
            pts_.push_back(
                {static_cast<double>(h.percentile((q + 0.5) * 100.0 / kPoints)),
                 w});
        total_ += static_cast<double>(h.count());
    }

    double
    percentile(double p)
    {
        if (pts_.empty())
            return 0.0;
        std::sort(pts_.begin(), pts_.end());
        double cum = 0.0;
        for (const auto &[v, w] : pts_) {
            cum += w;
            if (cum >= p / 100.0 * total_)
                return v;
        }
        return pts_.back().first;
    }

    double max() const { return static_cast<double>(max_); }

  private:
    static constexpr unsigned kPoints = 1000;
    std::vector<std::pair<double, double>> pts_;
    double total_ = 0.0;
    std::uint64_t max_ = 0;
};

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Per-layer counts of one pass (the same on every pass). */
void
setLayerCounts(Report &rep, const std::vector<CellSpec> &cells,
               const std::vector<CellResult> &res)
{
    std::map<std::string, double> sum;
    std::map<RuntimeKind, std::pair<double, double>> perRuntime;
    HistPool lat, cst, dram;
    double sweeps = 0, fired = 0, picks = 0, checked = 0;
    double commits = 0, aborts = 0, cycles = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
        const CellResult &r = res[i];
        for (const auto &[n, v] : r.counters)
            sum[n] += static_cast<double>(v);
        lat.add(r.commitLatency);
        cst.add(r.cstConflicts);
        dram.add(r.dramQueue);
        sweeps += static_cast<double>(r.sweeps);
        fired += static_cast<double>(r.faultsFired);
        picks += static_cast<double>(r.pickCalls);
        checked += static_cast<double>(r.checkedOps);
        commits += static_cast<double>(r.commits);
        aborts += static_cast<double>(r.aborts);
        cycles += static_cast<double>(r.cycles);
        auto &[rc, ry] = perRuntime[cells[i].rk];
        rc += static_cast<double>(r.commits);
        ry += static_cast<double>(r.cycles);
    }
    rep.set("sim.cycles", cycles);
    rep.set("sim.commits_per_mcycle", ratio(commits * 1e6, cycles));
    rep.set("sim.oracle.checked_ops", checked);
    rep.set("sim.auditor.sweeps", sweeps);
    rep.set("sim.fault.fired", fired);
    rep.set("sim.fault.pick_calls", picks);
    rep.set("os.suspends", sum["os.suspends"]);
    rep.set("os.ctxswitch_spills", sum["os.ctxswitch_spills"]);
    const double l1All = sum["l1.hits"] + sum["l1.misses"];
    rep.set("mem.l1_accesses", l1All);
    rep.set("mem.l1_miss_ratio", ratio(sum["l1.misses"], l1All));
    rep.set("mem.l2_misses", sum["l2.misses"]);
    rep.set("mem.dir_requests", sum["dir.requests"]);
    rep.set("mem.dir_forwards", sum["dir.forwards"]);
    rep.set("mem.sharer_cache_hit_ratio",
            ratio(sum["sharer_cache.hits"],
                  sum["sharer_cache.hits"] + sum["sharer_cache.misses"]));
    rep.set("mem.dram.reads", sum["dram.reads"]);
    rep.set("mem.dram.writes", sum["dram.writes"]);
    rep.set("mem.dram.row_hit_ratio",
            ratio(sum["dram.row_hits"], sum["dram.row_hits"] +
                                            sum["dram.row_misses"] +
                                            sum["dram.row_conflicts"]));
    rep.set("mem.dram.queue_cycles_p50", dram.percentile(50));
    rep.set("mem.dram.queue_cycles_p99", dram.percentile(99));
    rep.set("mem.dram.bank_busy_cycles", sum["dram.bank_busy_cycles"]);
    rep.set("mem.dram.wq_stalls", sum["dram.wq_stalls"]);
    rep.set("runtime.commits", commits);
    rep.set("runtime.aborts", aborts);
    rep.set("runtime.commit_ratio", ratio(commits, commits + aborts));
    rep.set("runtime.commit_cycles_p50", lat.percentile(50));
    rep.set("runtime.commit_cycles_p99", lat.percentile(99));
    rep.set("runtime.cm_backoffs", sum["cm.backoffs"]);
    rep.set("runtime.cm_enemy_aborts", sum["cm.enemy_aborts"]);
    rep.set("runtime.commit_failed_csts", sum["commit.failed_csts"]);
    for (const auto &[rk, cy] : perRuntime)
        rep.set(std::string("runtime.") + runtimeKindName(rk) +
                    ".commits_per_mcycle",
                ratio(cy.first * 1e6, cy.second));
    rep.set("core.ot_spills", sum["ot.spills"]);
    rep.set("core.ot_refills", sum["ot.refills"]);
    rep.set("core.pdi_tmi_installs", sum["pdi.tmi_installs"]);
    rep.set("core.cst_conflicts_p50", cst.percentile(50));
    rep.set("core.cst_conflicts_max", cst.max());
}

/** The frozen matrix's totals (ROADMAP, BENCH_sim.json). */
constexpr Totals kFrozen{2283787, 5184, 2295, 1789580};

Report
runSim(const char *name, const std::vector<CellSpec> &cells,
       const Options &o, bool frozenSeed)
{
    Report rep;
    if (!driftGuard(name, o.seed))
        rep.correct = false;

    const auto start = Clock::now();
    SpanLog log(start);
    std::vector<PassTimes> plain, traced;
    std::vector<CellResult> last;
    Totals first;
    // A traced run alternates untraced and traced passes, so the
    // difference of their medians is the tracing overhead.
    const unsigned minPasses = o.trace ? 4 : 3;
    for (unsigned pass = 0;
         pass < minPasses || secondsSince(start) < o.seconds; ++pass) {
        const bool tracing = o.trace && pass % 2 == 1;
        if (tracing)
            log.clear();
        std::vector<CellResult> res;
        res.reserve(cells.size());
        const auto p0 = Clock::now();
        for (const CellSpec &c : cells)
            res.push_back(runCell(c, tracing ? &log : nullptr));
        PassTimes pt;
        pt.wall = secondsSince(p0);

        Totals tot;
        double l1 = 0;
        std::vector<double> txnUs;
        for (std::size_t i = 0; i < res.size(); ++i) {
            const CellResult &r = res[i];
            ++rep.attempted;
            if (!r.ok) {
                ++rep.failed;
                std::printf("FAILED cell %s\n", r.message.c_str());
            }
            tot.cycles += r.cycles;
            tot.commits += r.commits;
            tot.aborts += r.aborts;
            tot.checkedOps += r.checkedOps;
            pt.build += r.buildS;
            pt.warmup += r.warmupS;
            pt.parallel += r.parallelS;
            pt.verify += r.verifyS;
            pt.validate += r.validateS;
            pt.spanned += r.cellS;
            pt.cellSelf += r.cellS - r.buildS - r.warmupS - r.parallelS -
                           r.verifyS - r.validateS;
            l1 += static_cast<double>(r.parallelL1);
            txnUs.insert(txnUs.end(), r.txnUs.begin(), r.txnUs.end());
        }
        pt.commitsPerS = ratio(static_cast<double>(tot.commits), pt.parallel);
        pt.mcyclesPerS =
            ratio(static_cast<double>(tot.cycles) * 1e-6, pt.parallel);
        pt.nsPerL1 = ratio(pt.parallel * 1e9, l1);
        pt.txnP50 = percentile(txnUs, 50);
        pt.txnP99 = percentile(txnUs, 99);

        if (pass == 0) {
            first = tot;
        } else if (!(tot == first)) {
            rep.correct = false;
            std::printf("FAILED determinism: pass %u simulated different "
                        "work than pass 0\n",
                        pass);
        }
        std::printf("pass %u%s: wall %.4f s, setup %.4f s, parallel %.4f s\n",
                    pass, tracing ? " (traced)" : "", pt.wall,
                    pt.build + pt.warmup, pt.parallel);
        (tracing ? traced : plain).push_back(pt);
        last = std::move(res);
    }

    std::printf("%s seed %" PRIu64 ": %zu cells x %zu passes, simulated "
                "%" PRIu64 " cycles / %" PRIu64 " commits / %" PRIu64
                " aborts / %" PRIu64 " checked ops per pass\n",
                name, o.seed, cells.size(), plain.size() + traced.size(),
                first.cycles, first.commits, first.aborts,
                first.checkedOps);
    if (frozenSeed) {
        const bool same = first == kFrozen;
        std::printf("frozen totals (2283787 cycles / 5184 commits / 2295 "
                    "aborts / 1789580 checked ops): %s\n",
                    same ? "reproduced" : "NOT reproduced");
        if (!same)
            rep.correct = false;
    }

    auto med = [](const std::vector<PassTimes> &v, double PassTimes::*f) {
        std::vector<double> xs;
        for (const PassTimes &p : v)
            xs.push_back(p.*f);
        return median(xs);
    };

    if (!o.trace) {
        rep.set("wall_s", med(plain, &PassTimes::wall));
        rep.set("setup_s", [&] {
            std::vector<double> xs;
            for (const PassTimes &p : plain)
                xs.push_back(p.build + p.warmup);
            return median(xs);
        }());
        rep.set("commits_per_s", med(plain, &PassTimes::commitsPerS));
        rep.set("peak_rss_mb", peakRssMb());
        return rep;
    }

    setLayerCounts(rep, cells, last);
    rep.set("runtime.build_s", med(traced, &PassTimes::build));
    rep.set("workloads.setup_s", med(traced, &PassTimes::warmup));
    rep.set("sim.parallel_s", med(traced, &PassTimes::parallel));
    rep.set("workloads.verify_s", med(traced, &PassTimes::verify));
    rep.set("sim.oracle.validate_s", med(traced, &PassTimes::validate));
    rep.set("bench.cell_self_s", med(traced, &PassTimes::cellSelf));
    rep.set("sim.host_ns_per_l1_access", med(traced, &PassTimes::nsPerL1));
    rep.set("sim.mcycles_per_s", med(traced, &PassTimes::mcyclesPerS));
    rep.set("sim.txn_us_p50", med(plain, &PassTimes::txnP50));
    rep.set("sim.txn_us_p99", med(plain, &PassTimes::txnP99));
    const double tracedWall = med(traced, &PassTimes::wall);
    rep.set("trace.wall_s", tracedWall);
    rep.set("trace.overhead_s", tracedWall - med(plain, &PassTimes::wall));
    std::vector<double> gaps;
    for (const PassTimes &p : traced)
        gaps.push_back(p.wall - p.spanned);
    rep.set("trace.unaccounted_s", median(gaps));

    // Self-time table of the last traced pass (the spans written out).
    const std::vector<const SpanLog *> logs = {&log};
    const auto self = selfTimes(logs);
    const double lastWall = traced.back().wall;
    double covered = 0;
    std::printf("layer self time, last traced pass (wall %.4f s):\n",
                lastWall);
    for (const auto &[layer, s] : self) {
        covered += s;
        std::printf("  %-12s %10.4f s  %6.2f%%\n", layer.c_str(), s,
                    100.0 * s / lastWall);
    }
    std::printf("  %-12s %10.4f s  %6.2f%%\n", "(uncovered)",
                lastWall - covered, 100.0 * (lastWall - covered) / lastWall);
    std::printf("tracing overhead: traced wall %.4f s - untraced wall "
                "%.4f s = %+.4f s\n",
                tracedWall, med(plain, &PassTimes::wall),
                rep.values["trace.overhead_s"]);
    if (!o.spansPath.empty() && !writeSpans(o.spansPath, o.env, logs)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o.spansPath.c_str());
        rep.correct = false;
    }
    return rep;
}

/** Compare one cell of the phase-split driver against the harness. */
bool
guardCell(const CellSpec &c)
{
    const CellResult mine = runCell(c, nullptr);
    Totals ref;
    bool refOk = true;
    if (c.checked) {
        FaultRunOptions opt;
        opt.seed = c.seed;
        opt.threads = c.threads;
        opt.totalOps = c.ops;
        opt.quiet = true;
        opt.machine = machineFor(c);
        const FaultRunResult r = runFaultedExperiment(c.wk, c.rk, opt);
        ref = {r.cycles, r.commits, r.aborts, r.report.checkedOps};
        refOk = r.report.ok;
    } else {
        ExperimentOptions opt;
        opt.seed = c.seed;
        opt.threads = c.threads;
        opt.totalOps = c.ops;
        opt.machine = machineFor(c);
        const ExperimentResult r = runExperiment(c.wk, c.rk, opt);
        ref = {r.cycles, r.commits, r.aborts, 0};
    }
    const Totals got{mine.cycles, mine.commits, mine.aborts,
                     mine.checkedOps};
    const bool same = got == ref && mine.ok && refOk;
    std::printf("drift guard %-12s %-13s seed %-6" PRIu64
                " cycles %" PRIu64 "/%" PRIu64 " commits %" PRIu64
                "/%" PRIu64 " aborts %" PRIu64 "/%" PRIu64
                " checked %" PRIu64 "/%" PRIu64 ": %s\n",
                runtimeKindName(c.rk), workloadKindName(c.wk), c.seed,
                got.cycles, ref.cycles, got.commits, ref.commits,
                got.aborts, ref.aborts, got.checkedOps, ref.checkedOps,
                same ? "same" : "DIFFERENT");
    return same;
}

} // anonymous namespace

bool
driftGuard(const std::string &which, std::uint64_t seed)
{
    bool ok = true;
    if (which == "sim-checked" || which == "all") {
        // One cell of each frozen-matrix workload, spread over the
        // runtimes (FlexTM installs the TxOs fault hooks).
        const std::vector<CellSpec> cells = checkedCells(seed);
        for (std::size_t i : {0u, 13u, 42u})
            ok = guardCell(cells[i]) && ok;
    }
    if (which == "sim-paper" || which == "all") {
        // Full 16-thread cells, one per workload, at a tenth of the
        // operations.
        std::vector<CellSpec> cells = paperCells(seed);
        for (std::size_t i : {0u, 10u, 20u}) {
            CellSpec c = cells[i];
            c.ops /= 10;
            ok = guardCell(c) && ok;
        }
    }
    return ok;
}

Report
runSimChecked(const Options &o)
{
    return runSim("sim-checked", checkedCells(o.seed), o, o.seed == 1);
}

Report
runSimPaper(const Options &o)
{
    return runSim("sim-paper", paperCells(o.seed), o, false);
}

} // namespace perfbench
