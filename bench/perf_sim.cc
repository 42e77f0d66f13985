/**
 * @file
 * Simulator-performance trajectory bench (BENCH_sim.json): host wall
 * clock and simulated cycles per host second over one table of
 * sections, each a named list of cells timed together - the frozen
 * 54-cell matrix ("flat": 6 runtimes x 3 workloads x 3 seeds, chaos
 * faults, full oracle replay; also timed on --jobs N workers) and one
 * side cell each for the DRAM backend, HyTM and TimestampGreedy CM.
 *
 *     perf_sim --record-baseline --out BENCH_sim.json  # new baseline
 *     perf_sim --out BENCH_sim.json        # keep baseline, re-measure
 *     perf_sim --check BENCH_sim.json      # regression gate
 *     perf_sim --quick [--out FILE]        # 6-cell smoke subset
 *
 * Each section records a "baseline" and a "current" pass (flat adds
 * "parallel"): wall time plus the simulated-work identity, which every
 * pass must reproduce bit for bit - a "perf" change must not alter
 * simulation semantics.  A section the file lacks (a new table row)
 * adopts this run as its baseline.  "native" (libflextm ops/sec on
 * real pthreads) is trajectory only.  --check fails when a section's
 * identity differs from FILE's "current" or its serial wall clock
 * exceeds ref*(1+PCT/100)+slack (--max-regress, default 20; --slack,
 * default 0.05 s + one recorded wall, because ctest runs the
 * RelWithDebInfo build against numbers from the Release bench build).
 * The reader is strict: a wrong schema, a missing section or key, or
 * a malformed number is fatal and names the section and the key.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/env_util.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "workloads/fault_harness.hh"

using namespace flextm;

namespace
{

constexpr int kSchema = 7;
constexpr RuntimeKind kRuntimes[] = {
    RuntimeKind::FlexTmEager, RuntimeKind::FlexTmLazy, RuntimeKind::Cgl,
    RuntimeKind::Rstm,        RuntimeKind::Tl2,        RuntimeKind::RtmF};
constexpr WorkloadKind kWorkloads[] = {
    WorkloadKind::HashTable, WorkloadKind::LFUCache, WorkloadKind::RBTree};
constexpr unsigned kSeedsPerCell = 3;
constexpr unsigned kThreads = 4;
constexpr unsigned kTotalOps = 96;

struct Cell
{
    RuntimeKind rk;
    WorkloadKind wk;
    std::uint64_t seed;
    MemBackendKind mem = MemBackendKind::Fixed;
    CmPolicy policy = CmPolicy::Polka;
};

/** One row of the section table.  Adding a side cell is adding a
 *  row: the run, check, load and write loops all walk the table. */
struct Section
{
    std::string name;
    std::vector<Cell> cells;
    /** Also time a --jobs N pass, recorded as "parallel". */
    bool parallel = false;
};

/** The frozen matrix; --quick keeps one cell per runtime. */
std::vector<Cell>
frozenMatrix(bool quick)
{
    std::vector<Cell> cells;
    const unsigned workloads = quick ? 1 : std::size(kWorkloads);
    const unsigned seeds = quick ? 1 : kSeedsPerCell;
    for (unsigned r = 0; r < std::size(kRuntimes); ++r)
        for (unsigned w = 0; w < workloads; ++w)
            for (unsigned k = 0; k < seeds; ++k)
                cells.push_back({kRuntimes[r], kWorkloads[w],
                                 7000 + (r * 8 + w) * kSeedsPerCell + k});
    return cells;
}

std::vector<Section>
sectionTable(bool quick)
{
    return {
        {"flat", frozenMatrix(quick), true},
        {"dram",
         {{.rk = RuntimeKind::FlexTmEager, .wk = WorkloadKind::HashTable,
           .seed = 7000, .mem = MemBackendKind::Dram}}},
        {"hytm",
         {{.rk = RuntimeKind::HyTm, .wk = WorkloadKind::HashTable,
           .seed = 7200}}},
        {"cm",
         {{.rk = RuntimeKind::FlexTmEager, .wk = WorkloadKind::HotSpot,
           .seed = 7400, .policy = CmPolicy::TimestampGreedy}}},
    };
}

std::vector<std::string>
passNames(const Section &s)
{
    if (s.parallel)
        return {"baseline", "current", "parallel"};
    return {"baseline", "current"};
}

/** One timed pass over a section's cells. */
struct Totals
{
    double wallSeconds = 0.0;
    double cyclesPerSecond = 0.0;
    std::uint64_t jobs = 1;
    std::uint64_t simCycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t checkedOps = 0;
};

/** A key of a pass object: a host measurement (`real`) or a counter
 *  (`count`).  `identity` counters are the simulated work, which must
 *  match bit for bit between a pass and its reference. */
struct Key
{
    const char *name;
    double Totals::*real = nullptr;
    int decimals = 0;
    std::uint64_t Totals::*count = nullptr;
    bool identity = false;
};

/** The pass layout, in file order: the writer prints exactly these
 *  keys and the reader demands every one. */
const Key kKeys[] = {
    {.name = "wall_seconds", .real = &Totals::wallSeconds, .decimals = 4},
    {.name = "sim_cycles", .count = &Totals::simCycles, .identity = true},
    {.name = "sim_cycles_per_second", .real = &Totals::cyclesPerSecond},
    {.name = "commits", .count = &Totals::commits, .identity = true},
    {.name = "aborts", .count = &Totals::aborts, .identity = true},
    {.name = "checked_ops", .count = &Totals::checkedOps,
     .identity = true},
    {.name = "jobs", .count = &Totals::jobs},
};

/** Passes by dotted path, e.g. "flat.current". */
using Passes = std::map<std::string, Totals>;

Totals
runPass(const Section &s, unsigned jobs)
{
    std::vector<FaultRunResult> results(s.cells.size());
    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(s.cells.size(), jobs, [&](std::size_t i) {
        const Cell &c = s.cells[i];
        FaultRunOptions opt;
        opt.seed = c.seed;
        opt.threads = kThreads;
        opt.totalOps = kTotalOps;
        opt.quiet = true;
        opt.machine.cmPolicy = c.policy;
        opt.machine.memBackend = c.mem;
        results[i] = runFaultedExperiment(c.wk, c.rk, opt);
    });
    const auto t1 = std::chrono::steady_clock::now();

    Totals t;
    t.jobs = jobs;
    t.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    for (const FaultRunResult &r : results) {
        if (!r.report.ok)
            fatal("perf_sim: %s cell failed: %s", s.name.c_str(),
                  r.report.message.c_str());
        t.simCycles += r.cycles;
        t.commits += r.commits;
        t.aborts += r.aborts;
        t.checkedOps += r.report.checkedOps;
    }
    if (t.wallSeconds > 0)
        t.cyclesPerSecond = static_cast<double>(t.simCycles) / t.wallSeconds;
    std::fprintf(stderr,
                 "perf_sim: %-4s %zu cells on %u jobs: %.3fs, %.2f "
                 "Mcycles/s, %llu commits\n",
                 s.name.c_str(), s.cells.size(), jobs, t.wallSeconds,
                 t.cyclesPerSecond / 1e6,
                 static_cast<unsigned long long>(t.commits));
    return t;
}

/** The simulated-work identity check: perf must never change
 *  semantics. */
bool
sameWork(const std::string &what, const Totals &ref, const Totals &cur)
{
    bool same = true;
    for (const Key &k : kKeys) {
        if (!k.identity || ref.*k.count == cur.*k.count)
            continue;
        std::fprintf(stderr,
                     "perf_sim: %s MISMATCH: %s %llu, recorded %llu\n",
                     what.c_str(), k.name,
                     static_cast<unsigned long long>(cur.*k.count),
                     static_cast<unsigned long long>(ref.*k.count));
        same = false;
    }
    return same;
}

/** One section of the --check gate: simulated-work identity plus the
 *  wall-clock limit against the recorded pass. */
bool
checkPass(const std::string &what, const Totals &ref, const Totals &cur,
          double maxRegressPct, double slackSeconds)
{
    if (!sameWork(what, ref, cur))
        return false;
    const double slack =
        slackSeconds >= 0 ? slackSeconds : 0.05 + ref.wallSeconds;
    const double limit =
        ref.wallSeconds * (1.0 + maxRegressPct / 100.0) + slack;
    const bool ok = cur.wallSeconds <= limit;
    std::fprintf(stderr,
                 "perf_sim: check %-4s %s: %.3fs vs recorded %.3fs "
                 "(limit %.3fs = +%.0f%% + %.2fs slack)\n",
                 what.c_str(), ok ? "ok" : "REGRESSED", cur.wallSeconds,
                 ref.wallSeconds, limit, maxRegressPct, slack);
    return ok;
}

/** Read every pass of every section in @p table back from @p file,
 *  in write()'s one-key-per-line layout; fatal on anything missing or
 *  malformed, except that with @p adoptMissing a section the file
 *  lacks entirely is left out (a new table row adopts this run). */
Passes
load(const std::string &file, const std::vector<Section> &table,
     bool adoptMissing)
{
    std::ifstream in(file);
    if (!in)
        fatal("perf_sim: cannot read %s", file.c_str());
    // Dotted path -> value text ("flat.current.commits" -> "5184", an
    // object -> "{"), from lines `{`, `"key": {`, `"key": value` and
    // `}`, each with an optional comma; `open` holds path prefixes.
    std::map<std::string, std::string> doc;
    std::vector<std::string> open;
    std::string line;
    for (unsigned n = 1; std::getline(in, line); ++n) {
        std::string key;
        std::string value =
            line.substr(std::min(line.find_first_not_of(' '), line.size()));
        if (value.ends_with(','))
            value.pop_back();
        const std::size_t colon = value.find("\": ");
        if (value.starts_with('"') && colon != std::string::npos) {
            key = value.substr(1, colon - 1);
            value.erase(0, colon + 3);
        }
        if (value.size() >= 2 && value.starts_with('"') &&
            value.ends_with('"'))
            value = value.substr(1, value.size() - 2);
        const bool keyed = !key.empty();
        if (value == "}" && !keyed && !open.empty()) {
            open.pop_back();
            continue;
        }
        // Keys live inside an object; only the root "{" has none.
        if (value.empty() || keyed == open.empty())
            fatal("perf_sim: %s:%u: not perf_sim's JSON layout",
                  file.c_str(), n);
        const std::string path = keyed ? open.back() + key : "";
        if (!doc.emplace(path, value).second)
            fatal("perf_sim: %s:%u: duplicate key", file.c_str(), n);
        if (value == "{")
            open.push_back(keyed ? path + "." : "");
    }
    if (doc.empty() || !open.empty())
        fatal("perf_sim: %s: truncated", file.c_str());
    if (doc["schema"] != std::to_string(kSchema))
        fatal("perf_sim: %s is not schema %d; re-record it with "
              "--record-baseline",
              file.c_str(), kSchema);

    Passes out;
    for (const Section &s : table) {
        if (adoptMissing && !doc.count(s.name))
            continue;
        for (const std::string &pass : passNames(s)) {
            const std::string sec = s.name + "." + pass;
            if (doc[sec] != "{")
                fatal("perf_sim: %s: missing section \"%s\"", file.c_str(),
                      sec.c_str());
            for (const Key &k : kKeys) {
                const auto v = doc.find(sec + "." + k.name);
                if (v == doc.end())
                    fatal("perf_sim: %s: section \"%s\" has no key \"%s\"",
                          file.c_str(), sec.c_str(), k.name);
                const std::string what = file + ": " + v->first;
                if (k.real)
                    out[sec].*k.real = env::parseDouble(
                        what.c_str(), v->second.c_str(), 0, 1e300);
                else
                    out[sec].*k.count = env::parseU64(
                        what.c_str(), v->second.c_str(), 0, UINT64_MAX);
            }
        }
    }
    return out;
}

void
write(const std::string &file, const std::vector<Section> &table,
      const Passes &passes, double maxRegressPct, bool quick)
{
    // libflextm on the grader's mix: host ops/sec, trajectory only.
    const bench::NativeMix mix;
    const bench::NativeBest native = bench::nativeBestOf(mix, 100, 3, 1);
    std::fprintf(stderr,
                 "perf_sim: native tl2 %.0f ops/s, global-lock %.0f "
                 "ops/s\n",
                 native.tl2, native.gl);

    std::FILE *f = std::fopen(file.c_str(), "w");
    if (!f)
        fatal("perf_sim: cannot write %s", file.c_str());
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"perf_sim\",\n"
                 "  \"schema\": %d,\n"
                 "  \"regress_gate\": {\n"
                 "    \"max_regress_pct\": %.0f,\n"
                 "    \"command\": \"perf_sim --check BENCH_sim.json\"\n"
                 "  },\n"
                 "  \"matrix\": {\n"
                 "    \"runtimes\": %zu,\n"
                 "    \"workloads\": %zu,\n"
                 "    \"seeds_per_cell\": %u,\n"
                 "    \"cells\": %zu,\n"
                 "    \"threads\": %u,\n"
                 "    \"total_ops\": %u\n"
                 "  },\n",
                 kSchema, maxRegressPct, std::size(kRuntimes),
                 quick ? 1 : std::size(kWorkloads), quick ? 1 : kSeedsPerCell,
                 table.front().cells.size(), kThreads, kTotalOps);
    for (const Section &s : table) {
        std::fprintf(f, "  \"%s\": {\n", s.name.c_str());
        const std::vector<std::string> names = passNames(s);
        for (const std::string &pass : names) {
            const Totals &t = passes.at(s.name + "." + pass);
            std::fprintf(f, "    \"%s\": {\n", pass.c_str());
            for (const Key &k : kKeys) {
                const char *sep = &k == std::end(kKeys) - 1 ? "" : ",";
                if (k.real)
                    std::fprintf(f, "      \"%s\": %.*f%s\n", k.name,
                                 k.decimals, t.*k.real, sep);
                else
                    std::fprintf(f, "      \"%s\": %llu%s\n", k.name,
                                 static_cast<unsigned long long>(t.*k.count),
                                 sep);
            }
            std::fprintf(f, "    }%s\n", pass == names.back() ? "" : ",");
        }
        std::fprintf(f, "  },\n");
    }
    const double base = passes.at("flat.baseline").wallSeconds;
    const double serial = passes.at("flat.current").wallSeconds;
    const double par = passes.at("flat.parallel").wallSeconds;
    std::fprintf(f,
                 "  \"native\": {\n"
                 "    \"tl2_ops_per_sec\": %.0f,\n"
                 "    \"global_lock_ops_per_sec\": %.0f,\n"
                 "    \"threads\": %u,\n"
                 "    \"ops_per_txn\": %u,\n"
                 "    \"write_pct\": %u\n"
                 "  },\n"
                 "  \"speedup_serial\": %.3f,\n"
                 "  \"speedup_best\": %.3f\n"
                 "}\n",
                 native.tl2, native.gl, mix.threads, mix.opsPerTxn,
                 mix.writePct, serial > 0 ? base / serial : 0.0,
                 par > 0 ? base / par : 0.0);
    if (std::fclose(f) != 0)
        fatal("perf_sim: cannot write %s", file.c_str());
    std::fprintf(stderr, "perf_sim: wrote %s (flat baseline %.3fs)\n",
                 file.c_str(), base);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_sim.json";
    bool out_given = false;
    std::string check_path;
    bool record_baseline = false;
    bool quick = false;
    double max_regress_pct = 20.0;
    double slack_seconds = -1.0;  // negative = auto (cross-build)
    unsigned jobs = defaultJobs();
    const char *usage = "usage: perf_sim [--out FILE] [--record-baseline] "
                        "[--jobs N] [--quick]\n"
                        "       perf_sim --check FILE [--max-regress PCT] "
                        "[--slack SECONDS]\n";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out" && i + 1 < argc) {
            out_path = argv[++i];
            out_given = true;
        } else if (a == "--check" && i + 1 < argc) {
            check_path = argv[++i];
        } else if (a == "--max-regress" && i + 1 < argc) {
            max_regress_pct =
                env::parseDouble("--max-regress", argv[++i], 0, 1000);
        } else if (a == "--slack" && i + 1 < argc) {
            slack_seconds = env::parseDouble("--slack", argv[++i], 0, 3600);
        } else if (a == "--record-baseline") {
            record_baseline = true;
        } else if (a == "--quick") {
            quick = true;
        } else if (a == "--jobs" && i + 1 < argc) {
            jobs = static_cast<unsigned>(
                env::parseU64("--jobs", argv[++i], 1, 4096));
        } else {
            std::fputs(usage, stderr);
            return 2;
        }
    }
    const bool check = !check_path.empty();
    if (check && quick) {
        std::fprintf(stderr, "perf_sim: --check cannot run with --quick\n%s",
                     usage);
        return 2;
    }
    if (check)
        jobs = 1;  // the gate wants the stable serial wall clock
    // A quick run writes JSON only where --out points.
    const bool record = !check && (!quick || out_given);

    const std::vector<Section> table = sectionTable(quick);
    // Read the reference first, so a bad file fails before any run.
    Passes passes;
    if (check)
        passes = load(check_path, table, false);
    else if (record && !record_baseline && std::ifstream(out_path))
        passes = load(out_path, table, true);

    Passes measured;
    for (const Section &s : table) {
        const Totals serial = runPass(s, 1);
        measured[s.name + ".current"] = serial;
        if (s.parallel)
            measured[s.name + ".parallel"] =
                jobs > 1 ? runPass(s, jobs) : serial;
    }

    if (check) {
        bool ok = true;
        for (const Section &s : table) {
            const std::string cur = s.name + ".current";
            ok &= checkPass(s.name, passes.at(cur), measured.at(cur),
                            max_regress_pct, slack_seconds);
        }
        std::fprintf(stderr, "perf_sim: regression gate %s vs %s\n",
                     ok ? "ok" : "FAILED", check_path.c_str());
        return ok ? 0 : 1;
    }
    if (!record)
        return 0;

    bool same = true;
    for (const Section &s : table) {
        const std::string base = s.name + ".baseline";
        if (!passes.count(base)) {
            if (!record_baseline)
                std::fprintf(stderr,
                             "perf_sim: no %s section in %s; recording "
                             "this run as its baseline\n",
                             s.name.c_str(), out_path.c_str());
            passes[base] = measured.at(s.name + ".current");
        }
        for (const std::string &pass : passNames(s)) {
            const std::string path = s.name + "." + pass;
            if (pass == "baseline")
                continue;
            passes[path] = measured.at(path);
            same &= sameWork(path, passes.at(base), passes.at(path));
        }
    }
    if (!same)
        return 1;
    write(out_path, table, passes, max_regress_pct, quick);
    return 0;
}
