/**
 * @file
 * Simulator-performance trajectory bench (BENCH_sim.json).
 *
 * Unlike the figure/table harnesses, which measure the *simulated*
 * machine, perf_sim measures the *simulator*: host wall-clock and
 * simulated-cycles-per-host-second over a fixed workload matrix -
 * the 54-cell fault sweep shape (6 runtimes x 3 workloads x 3
 * seeds, 4 threads, 96 ops, chaos fault plan, full oracle replay).
 * The matrix is frozen so successive PRs are comparable.
 *
 * The first run records itself as the baseline:
 *
 *     perf_sim --record-baseline --out BENCH_sim.json
 *
 * Later runs reload the baseline block from the existing file,
 * re-measure, and emit both plus the speedup:
 *
 *     perf_sim --out BENCH_sim.json
 *
 * Determinism cross-check: the summed commits/aborts/checked-ops of
 * the matrix are part of the file; a current run whose totals differ
 * from the baseline's is measuring different work (a red flag that a
 * "perf" change altered simulation semantics) and exits nonzero.
 *
 * One extra cell runs with the banked DRAM backend and is tracked in
 * its own dram_baseline / dram_current sections (with the same
 * simulated-work identity check), kept outside the frozen matrix so
 * the flat-latency trajectory stays comparable across PRs.  A second
 * side cell does the same for the HyTM runtime (hytm_baseline /
 * hytm_current), since HyTm postdates the frozen 6-runtime matrix.
 * A third side cell (cm_baseline / cm_current) runs the adversarial
 * hot-spot workload under the TimestampGreedy contention manager -
 * the policy suite's trajectory tracker, also outside the frozen
 * (implicitly all-Polka) matrix.
 *
 * --quick runs a 6-cell subset (one workload, one seed per runtime)
 * with no JSON output - the perf-smoke ctest entry, so the harness
 * itself cannot rot.
 *
 * Schema 6 adds a "native" cell: real host ops/sec of the native
 * libflextm library (TL2 and global-lock backends) on the grader's
 * read-mostly Zipfian mix.  Host throughput is machine-dependent and
 * has no simulated-work identity, so the cell is informational - it
 * tracks the library's trajectory in BENCH_sim.json but is excluded
 * from both the identity check and the --check wall-clock gate.
 *
 * --check FILE is the regression gate (schema 6): re-measure the
 * frozen matrix and each side cell serially, verify the simulated
 * work is bit-identical to FILE's current sections, and fail when
 * any section's wall clock exceeds the recorded one by more than
 * --max-regress percent (default 20) plus a slack allowance.  The
 * slack defaults to 0.05s + one recorded wall, because the ctest
 * entry runs the RelWithDebInfo build against numbers recorded from
 * the Release+LTO bench build; pass an explicit --slack 0.05 for the
 * strict like-for-like 20% gate when checking from build-bench.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/parallel.hh"
#include "workloads/fault_harness.hh"

using namespace flextm;

namespace
{

constexpr RuntimeKind kRuntimes[] = {
    RuntimeKind::FlexTmEager, RuntimeKind::FlexTmLazy,
    RuntimeKind::Cgl,         RuntimeKind::Rstm,
    RuntimeKind::Tl2,         RuntimeKind::RtmF,
};
constexpr WorkloadKind kWorkloads[] = {
    WorkloadKind::HashTable,
    WorkloadKind::LFUCache,
    WorkloadKind::RBTree,
};
constexpr unsigned kSeedsPerCell = 3;
constexpr unsigned kThreads = 4;
constexpr unsigned kTotalOps = 96;

struct Cell
{
    RuntimeKind rk;
    WorkloadKind wk;
    std::uint64_t seed;
    /** Run with the banked DRAM backend instead of flat latency. */
    bool dram = false;
    /** Contention-management policy (the frozen matrix is all-Polka). */
    CmPolicy policy = CmPolicy::Polka;
};

struct CellResult
{
    bool ok = false;
    std::string message;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t checkedOps = 0;
    Cycles simCycles = 0;
};

struct Totals
{
    double wallSeconds = 0.0;
    std::uint64_t simCycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t checkedOps = 0;
    unsigned jobs = 1;

    double
    cyclesPerSecond() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(simCycles) / wallSeconds;
    }
};

std::vector<Cell>
buildMatrix(bool quick)
{
    std::vector<Cell> cells;
    unsigned r = 0;
    for (RuntimeKind rk : kRuntimes) {
        unsigned w = 0;
        for (WorkloadKind wk : kWorkloads) {
            for (unsigned k = 0; k < kSeedsPerCell; ++k) {
                // Same seed derivation style as the fault sweep:
                // distinct per cell, stable across runs.
                cells.push_back(Cell{
                    rk, wk,
                    7000 + (std::uint64_t{r} * 8 + w) * kSeedsPerCell +
                        k});
                if (quick)
                    break;
            }
            ++w;
            if (quick)
                break;
        }
        ++r;
    }
    return cells;
}

CellResult
runCell(const Cell &c)
{
    FaultRunOptions opt;
    opt.seed = c.seed;
    opt.threads = kThreads;
    opt.totalOps = kTotalOps;
    opt.quiet = true;
    opt.cmPolicy = c.policy;
    if (c.dram)
        opt.machine.memBackend = MemBackendKind::Dram;
    FaultRunResult r = runFaultedExperiment(c.wk, c.rk, opt);
    CellResult out;
    out.ok = r.report.ok;
    out.message = r.report.message;
    out.commits = r.commits;
    out.aborts = r.aborts;
    out.checkedOps = r.report.checkedOps;
    out.simCycles = r.cycles;
    return out;
}

/** Run the whole matrix across @p jobs workers; returns totals. */
bool
runMatrix(const std::vector<Cell> &cells, unsigned jobs, Totals &tot)
{
    std::vector<CellResult> results(cells.size());
    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(cells.size(), jobs,
                [&](std::size_t i) { results[i] = runCell(cells[i]); });
    const auto t1 = std::chrono::steady_clock::now();

    tot = Totals{};
    tot.jobs = jobs;
    tot.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    for (const CellResult &r : results) {
        if (!r.ok) {
            std::fprintf(stderr, "perf_sim: cell failed: %s\n",
                         r.message.c_str());
            return false;
        }
        tot.simCycles += r.simCycles;
        tot.commits += r.commits;
        tot.aborts += r.aborts;
        tot.checkedOps += r.checkedOps;
    }
    return true;
}

/**
 * Minimal extractor for the flat JSON this tool writes: finds
 * `"<section>": { ... "<key>": <number> ... }`.  Good enough to
 * round-trip our own output; not a general JSON parser.
 */
bool
extractNumber(const std::string &text, const std::string &section,
              const std::string &key, double &out)
{
    const std::size_t s = text.find("\"" + section + "\"");
    if (s == std::string::npos)
        return false;
    const std::size_t open = text.find('{', s);
    const std::size_t close = text.find('}', open);
    if (open == std::string::npos || close == std::string::npos)
        return false;
    const std::string body = text.substr(open, close - open);
    const std::size_t k = body.find("\"" + key + "\"");
    if (k == std::string::npos)
        return false;
    const std::size_t colon = body.find(':', k);
    if (colon == std::string::npos)
        return false;
    out = std::strtod(body.c_str() + colon + 1, nullptr);
    return true;
}

bool
loadTotals(const std::string &text, const std::string &section,
           Totals &base)
{
    double wall = 0, cycles = 0, commits = 0, aborts = 0, ops = 0;
    if (!extractNumber(text, section, "wall_seconds", wall) ||
        !extractNumber(text, section, "sim_cycles", cycles) ||
        !extractNumber(text, section, "commits", commits) ||
        !extractNumber(text, section, "aborts", aborts) ||
        !extractNumber(text, section, "checked_ops", ops)) {
        return false;
    }
    base.wallSeconds = wall;
    base.simCycles = static_cast<std::uint64_t>(cycles);
    base.commits = static_cast<std::uint64_t>(commits);
    base.aborts = static_cast<std::uint64_t>(aborts);
    base.checkedOps = static_cast<std::uint64_t>(ops);
    return true;
}

bool
readFile(const std::string &path, std::string &text)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
    return true;
}

/** The simulated-work identity check between a section's baseline
 *  and its re-measurement (perf must never change semantics). */
bool
matrixMatches(const char *what, const Totals &baseline,
              const Totals &current)
{
    if (baseline.commits == current.commits &&
        baseline.aborts == current.aborts &&
        baseline.checkedOps == current.checkedOps &&
        baseline.simCycles == current.simCycles) {
        return true;
    }
    std::fprintf(stderr,
                 "perf_sim: %s MATRIX MISMATCH vs baseline "
                 "(commits %llu/%llu aborts %llu/%llu "
                 "ops %llu/%llu cycles %llu/%llu)\n",
                 what, (unsigned long long)current.commits,
                 (unsigned long long)baseline.commits,
                 (unsigned long long)current.aborts,
                 (unsigned long long)baseline.aborts,
                 (unsigned long long)current.checkedOps,
                 (unsigned long long)baseline.checkedOps,
                 (unsigned long long)current.simCycles,
                 (unsigned long long)baseline.simCycles);
    return false;
}

/** One section of the --check gate: simulated-work identity plus the
 *  wall-clock threshold against the recorded section. */
bool
checkSection(const char *what, const Totals &ref, const Totals &cur,
             double maxRegressPct, double slackSeconds)
{
    if (!matrixMatches(what, ref, cur))
        return false;
    const double slack =
        slackSeconds >= 0 ? slackSeconds : 0.05 + ref.wallSeconds;
    const double limit =
        ref.wallSeconds * (1.0 + maxRegressPct / 100.0) + slack;
    const bool ok = cur.wallSeconds <= limit;
    std::fprintf(stderr,
                 "perf_sim: check %-4s %s: %.3fs vs recorded %.3fs "
                 "(limit %.3fs = +%.0f%% + %.2fs slack)\n",
                 what, ok ? "ok" : "REGRESSED", cur.wallSeconds,
                 ref.wallSeconds, limit, maxRegressPct, slack);
    return ok;
}

void
writeSection(std::FILE *f, const char *name, const Totals &t,
             bool trailingComma)
{
    std::fprintf(f,
                 "  \"%s\": {\n"
                 "    \"wall_seconds\": %.4f,\n"
                 "    \"sim_cycles\": %llu,\n"
                 "    \"sim_cycles_per_second\": %.0f,\n"
                 "    \"commits\": %llu,\n"
                 "    \"aborts\": %llu,\n"
                 "    \"checked_ops\": %llu,\n"
                 "    \"jobs\": %u\n"
                 "  }%s\n",
                 name, t.wallSeconds,
                 static_cast<unsigned long long>(t.simCycles),
                 t.cyclesPerSecond(),
                 static_cast<unsigned long long>(t.commits),
                 static_cast<unsigned long long>(t.aborts),
                 static_cast<unsigned long long>(t.checkedOps), t.jobs,
                 trailingComma ? "," : "");
}

/** @name Native libflextm throughput cell (schema 6)
 *
 * bench::nativeOpsPerSec, the grader's timed window on its read-mostly
 * Zipfian acceptance mix on real pthreads, one short best-of-rounds
 * window per backend.  Real host ops/sec - the only non-simulated
 * numbers in this file - so the cell is written to the JSON for
 * trajectory reading but takes part in neither the identity check
 * nor the --check gate. */
/// @{
struct NativeCell : bench::NativeMix
{
    double tl2OpsPerSec = 0.0;
    double glOpsPerSec = 0.0;
};

NativeCell
measureNativeCell()
{
    NativeCell c;
    // Interleave the backends' windows (as the grader does) so a
    // noisy phase on a shared box cannot penalize one side.
    for (unsigned r = 0; r < 3; ++r) {
        c.tl2OpsPerSec = std::max(
            c.tl2OpsPerSec,
            bench::nativeOpsPerSec(native::Backend::Tl2, c, 100, 1 + r));
        c.glOpsPerSec = std::max(
            c.glOpsPerSec, bench::nativeOpsPerSec(
                               native::Backend::GlobalLock, c, 100, 1 + r));
    }
    return c;
}
/// @}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_sim.json";
    std::string check_path;
    bool record_baseline = false;
    bool quick = false;
    double max_regress_pct = 20.0;
    double slack_seconds = -1.0;  // negative = auto (cross-build)
    unsigned jobs = defaultJobs();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (a == "--check" && i + 1 < argc) {
            check_path = argv[++i];
        } else if (a == "--max-regress" && i + 1 < argc) {
            max_regress_pct = std::strtod(argv[++i], nullptr);
        } else if (a == "--slack" && i + 1 < argc) {
            slack_seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--record-baseline") {
            record_baseline = true;
        } else if (a == "--quick") {
            quick = true;
        } else if (a == "--jobs" && i + 1 < argc) {
            jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
            if (jobs == 0)
                jobs = 1;
        } else {
            std::fprintf(stderr,
                         "usage: perf_sim [--out FILE] [--check FILE "
                         "[--max-regress PCT] [--slack SECONDS]] "
                         "[--record-baseline] [--quick] [--jobs N]\n");
            return 2;
        }
    }
    if (!check_path.empty())
        jobs = 1;  // the gate wants the stable serial wall clock

    const std::vector<Cell> cells = buildMatrix(quick);
    std::fprintf(stderr,
                 "perf_sim: %zu cells (%s), %u job%s ...\n",
                 cells.size(), quick ? "quick" : "full", jobs,
                 jobs == 1 ? "" : "s");

    // Serial pass: the single-thread trajectory number.
    Totals serial;
    if (!runMatrix(cells, 1, serial))
        return 1;
    std::fprintf(stderr,
                 "perf_sim: serial %.2fs, %.0f Mcycles/s, "
                 "%llu commits\n",
                 serial.wallSeconds, serial.cyclesPerSecond() / 1e6,
                 static_cast<unsigned long long>(serial.commits));

    // Parallel pass (skipped when it would repeat the serial pass).
    Totals parallel = serial;
    if (jobs > 1) {
        if (!runMatrix(cells, jobs, parallel))
            return 1;
        std::fprintf(stderr, "perf_sim: parallel(%u) %.2fs\n", jobs,
                     parallel.wallSeconds);
    }

    // One DRAM-backend cell, tracked beside (not inside) the frozen
    // 54-cell matrix so the flat-latency trajectory numbers stay
    // comparable across PRs that predate the backend.
    const std::vector<Cell> dramCells = {
        Cell{RuntimeKind::FlexTmEager, WorkloadKind::HashTable, 7000,
             /*dram=*/true}};
    Totals dram;
    if (!runMatrix(dramCells, 1, dram))
        return 1;
    std::fprintf(stderr,
                 "perf_sim: dram cell %.2fs, %llu sim cycles\n",
                 dram.wallSeconds,
                 static_cast<unsigned long long>(dram.simCycles));

    // One HyTM cell, also beside the frozen matrix (the 6-runtime
    // matrix predates the hybrid runtime and must stay frozen).
    const std::vector<Cell> hytmCells = {
        Cell{RuntimeKind::HyTm, WorkloadKind::HashTable, 7200}};
    Totals hytm;
    if (!runMatrix(hytmCells, 1, hytm))
        return 1;
    std::fprintf(stderr,
                 "perf_sim: hytm cell %.2fs, %llu sim cycles\n",
                 hytm.wallSeconds,
                 static_cast<unsigned long long>(hytm.simCycles));

    // One contention-management cell: the adversarial hot-spot storm
    // under TimestampGreedy, beside the frozen (all-Polka) matrix.
    const std::vector<Cell> cmCells = {
        Cell{RuntimeKind::FlexTmEager, WorkloadKind::HotSpot, 7400,
             /*dram=*/false, CmPolicy::TimestampGreedy}};
    Totals cm;
    if (!runMatrix(cmCells, 1, cm))
        return 1;
    std::fprintf(stderr,
                 "perf_sim: cm cell %.2fs, %llu sim cycles\n",
                 cm.wallSeconds,
                 static_cast<unsigned long long>(cm.simCycles));

    if (quick) {
        std::fprintf(stderr, "perf_sim: quick mode, no JSON output\n");
        return 0;
    }

    if (!check_path.empty()) {
        std::string ref_text;
        if (!readFile(check_path, ref_text)) {
            std::fprintf(stderr, "perf_sim: cannot read %s\n",
                         check_path.c_str());
            return 1;
        }
        Totals refFlat, refDram, refHytm, refCm;
        if (!loadTotals(ref_text, "current", refFlat) ||
            !loadTotals(ref_text, "dram_current", refDram) ||
            !loadTotals(ref_text, "hytm_current", refHytm) ||
            !loadTotals(ref_text, "cm_current", refCm)) {
            std::fprintf(stderr,
                         "perf_sim: %s lacks the current sections "
                         "needed for --check\n",
                         check_path.c_str());
            return 1;
        }
        bool ok = true;
        ok &= checkSection("flat", refFlat, serial, max_regress_pct,
                           slack_seconds);
        ok &= checkSection("dram", refDram, dram, max_regress_pct,
                           slack_seconds);
        ok &= checkSection("hytm", refHytm, hytm, max_regress_pct,
                           slack_seconds);
        ok &= checkSection("cm", refCm, cm, max_regress_pct,
                           slack_seconds);
        if (!ok) {
            std::fprintf(stderr,
                         "perf_sim: wall-clock regression gate FAILED "
                         "vs %s\n",
                         check_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "perf_sim: regression gate ok vs %s\n",
                     check_path.c_str());
        return 0;
    }

    // Native libflextm throughput cell: real host ops/sec on the
    // grader's acceptance mix.  Informational (machine-dependent
    // wall time, no simulated-work identity), so it runs only when
    // a full JSON is being written.
    const NativeCell nativeCell = measureNativeCell();
    std::fprintf(stderr,
                 "perf_sim: native cell tl2 %.0f ops/s, "
                 "global-lock %.0f ops/s\n",
                 nativeCell.tl2OpsPerSec, nativeCell.glOpsPerSec);

    std::string prior;
    Totals baseline;
    bool have_baseline = false;
    Totals dramBaseline;
    bool have_dram_baseline = false;
    Totals hytmBaseline;
    bool have_hytm_baseline = false;
    Totals cmBaseline;
    bool have_cm_baseline = false;
    if (!record_baseline && readFile(out_path, prior)) {
        have_baseline = loadTotals(prior, "baseline", baseline);
        have_dram_baseline =
            loadTotals(prior, "dram_baseline", dramBaseline);
        have_hytm_baseline =
            loadTotals(prior, "hytm_baseline", hytmBaseline);
        have_cm_baseline = loadTotals(prior, "cm_baseline", cmBaseline);
    }
    if (!have_baseline) {
        if (!record_baseline)
            std::fprintf(stderr,
                         "perf_sim: no baseline in %s; recording this "
                         "run as the baseline\n",
                         out_path.c_str());
        baseline = serial;
        have_baseline = true;
    }
    if (!have_dram_baseline) {
        if (!record_baseline)
            std::fprintf(stderr,
                         "perf_sim: no dram baseline in %s; recording "
                         "this run's dram cell as its baseline\n",
                         out_path.c_str());
        dramBaseline = dram;
        have_dram_baseline = true;
    }
    if (!have_hytm_baseline) {
        if (!record_baseline)
            std::fprintf(stderr,
                         "perf_sim: no hytm baseline in %s; recording "
                         "this run's hytm cell as its baseline\n",
                         out_path.c_str());
        hytmBaseline = hytm;
        have_hytm_baseline = true;
    }
    if (!have_cm_baseline) {
        if (!record_baseline)
            std::fprintf(stderr,
                         "perf_sim: no cm baseline in %s; recording "
                         "this run's cm cell as its baseline\n",
                         out_path.c_str());
        cmBaseline = cm;
        have_cm_baseline = true;
    }

    // Same matrix => same simulated work.  A mismatch means a perf
    // change altered simulation behaviour; fail loudly.
    if (!matrixMatches("flat", baseline, serial) ||
        !matrixMatches("dram", dramBaseline, dram) ||
        !matrixMatches("hytm", hytmBaseline, hytm) ||
        !matrixMatches("cm", cmBaseline, cm)) {
        return 1;
    }

    const double speedup_serial =
        serial.wallSeconds > 0 ? baseline.wallSeconds / serial.wallSeconds
                               : 0.0;
    const double speedup_best =
        parallel.wallSeconds > 0
            ? baseline.wallSeconds / parallel.wallSeconds
            : speedup_serial;

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perf_sim: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"bench\": \"perf_sim\",\n"
                 "  \"schema\": 6,\n"
                 "  \"regress_gate\": {\n"
                 "    \"max_regress_pct\": %.0f,\n"
                 "    \"command\": \"perf_sim --check BENCH_sim.json\"\n"
                 "  },\n"
                 "  \"matrix\": {\n"
                 "    \"runtimes\": 6,\n"
                 "    \"workloads\": 3,\n"
                 "    \"seeds_per_cell\": %u,\n"
                 "    \"cells\": %zu,\n"
                 "    \"threads\": %u,\n"
                 "    \"total_ops\": %u\n"
                 "  },\n",
                 max_regress_pct, kSeedsPerCell, cells.size(), kThreads,
                 kTotalOps);
    writeSection(f, "baseline", baseline, true);
    writeSection(f, "current", serial, true);
    writeSection(f, "current_parallel", parallel, true);
    writeSection(f, "dram_baseline", dramBaseline, true);
    writeSection(f, "dram_current", dram, true);
    writeSection(f, "hytm_baseline", hytmBaseline, true);
    writeSection(f, "hytm_current", hytm, true);
    writeSection(f, "cm_baseline", cmBaseline, true);
    writeSection(f, "cm_current", cm, true);
    // Schema-6 native cell: host throughput of the native library
    // (trajectory only - excluded from identity and --check gates).
    std::fprintf(f,
                 "  \"native\": {\n"
                 "    \"tl2_ops_per_sec\": %.0f,\n"
                 "    \"global_lock_ops_per_sec\": %.0f,\n"
                 "    \"threads\": %u,\n"
                 "    \"ops_per_txn\": %u,\n"
                 "    \"write_pct\": %u\n"
                 "  },\n",
                 nativeCell.tl2OpsPerSec, nativeCell.glOpsPerSec,
                 nativeCell.threads, nativeCell.opsPerTxn,
                 nativeCell.writePct);
    std::fprintf(f,
                 "  \"speedup_serial\": %.3f,\n"
                 "  \"speedup_best\": %.3f\n"
                 "}\n",
                 speedup_serial, speedup_best);
    std::fclose(f);
    std::fprintf(stderr,
                 "perf_sim: wrote %s (serial speedup %.2fx, best "
                 "%.2fx vs baseline %.2fs)\n",
                 out_path.c_str(), speedup_serial, speedup_best,
                 baseline.wallSeconds);
    return 0;
}
