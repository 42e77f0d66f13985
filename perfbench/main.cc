/**
 * @file
 * perfbench: the repository's benchmark binary (run it through
 * perfbench/run.py, which builds it first).
 *
 *   perfbench --workload sim-checked|sim-paper|native-bank
 *             --seed N --seconds S --trace 0|1
 *             [--spans FILE] [--commit SHA]
 *   perfbench --self-test [--seed N]
 *
 * With --trace 0 the last stdout line carries the end-to-end
 * metrics; with --trace 1 it carries the per-layer ledger, and the
 * run's spans are written to --spans.  See perfbench/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "perfbench/bench.hh"

namespace perfbench
{

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    k = std::min(k, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"commits_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    // Host time per layer (medians over traced passes).
    {"runtime.build_s", "s"},
    {"workloads.setup_s", "s"},
    {"sim.parallel_s", "s"},
    {"workloads.verify_s", "s"},
    {"sim.oracle.validate_s", "s"},
    {"bench.cell_self_s", "s"},
    {"sim.host_ns_per_l1_access", "ns"},
    {"sim.mcycles_per_s", "Mcycles/s"},
    {"sim.txn_us_p50", "us"},
    {"sim.txn_us_p99", "us"},
    // The tracer's own cost and what the spans leave uncovered.
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.unaccounted_s", "s"},
    // Simulated work (deterministic for a seed).
    {"sim.cycles", "cycles"},
    {"sim.commits_per_mcycle", "1/Mcycles"},
    {"sim.oracle.checked_ops", "count"},
    {"sim.auditor.sweeps", "count"},
    {"sim.fault.fired", "count"},
    {"sim.fault.pick_calls", "count"},
    {"os.suspends", "count"},
    {"os.ctxswitch_spills", "count"},
    {"mem.l1_accesses", "count"},
    {"mem.l1_miss_ratio", "ratio"},
    {"mem.l2_misses", "count"},
    {"mem.dir_requests", "count"},
    {"mem.dir_forwards", "count"},
    {"mem.sharer_cache_hit_ratio", "ratio"},
    {"mem.dram.reads", "count"},
    {"mem.dram.writes", "count"},
    {"mem.dram.row_hit_ratio", "ratio"},
    {"mem.dram.queue_cycles_p50", "cycles"},
    {"mem.dram.queue_cycles_p99", "cycles"},
    {"mem.dram.bank_busy_cycles", "cycles"},
    {"mem.dram.wq_stalls", "count"},
    {"runtime.commits", "count"},
    {"runtime.aborts", "count"},
    {"runtime.commit_ratio", "ratio"},
    {"runtime.commit_cycles_p50", "cycles"},
    {"runtime.commit_cycles_p99", "cycles"},
    {"runtime.cm_backoffs", "count"},
    {"runtime.cm_enemy_aborts", "count"},
    {"runtime.commit_failed_csts", "count"},
    {"runtime.FlexTM-Eager.commits_per_mcycle", "1/Mcycles"},
    {"runtime.FlexTM-Lazy.commits_per_mcycle", "1/Mcycles"},
    {"runtime.CGL.commits_per_mcycle", "1/Mcycles"},
    {"runtime.RSTM.commits_per_mcycle", "1/Mcycles"},
    {"runtime.TL2.commits_per_mcycle", "1/Mcycles"},
    {"runtime.RTM-F.commits_per_mcycle", "1/Mcycles"},
    {"runtime.HyTM.commits_per_mcycle", "1/Mcycles"},
    {"core.ot_spills", "count"},
    {"core.ot_refills", "count"},
    {"core.pdi_tmi_installs", "count"},
    {"core.cst_conflicts_p50", "count"},
    {"core.cst_conflicts_max", "count"},
    // libflextm.
    {"native.ops_per_s", "1/s"},
    {"native.txn_us_p50", "us"},
    {"native.txn_us_p99", "us"},
    {"native.attempts_per_commit", "ratio"},
    {"native.ro_txn_us_p50", "us"},
    {"native.update_txn_us_p50", "us"},
    {"native.update_txn_us_p99", "us"},
    {"native.tm_begin_ns_p50", "ns"},
    {"native.tm_read_ns_p50", "ns"},
    {"native.tm_write_ns_p50", "ns"},
    {"native.tm_end_ns_p50", "ns"},
    {"native.tm_end_ns_p99", "ns"},
};

void
Report::print(bool trace) const
{
    const std::vector<MetricDef> &defs = trace ? kPerLayer : kEndToEnd;
    for (const auto &[name, v] : values) {
        const bool known =
            std::any_of(defs.begin(), defs.end(),
                        [&](const MetricDef &d) { return name == d.name; });
        if (!known) {
            std::fprintf(stderr, "perfbench: metric %s is not listed\n",
                         name.c_str());
            std::abort();
        }
    }

    std::printf("%-40s %18s  %s\n", "metric", "value", "unit");
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        double v = it == values.end() ? 0.0 : it->second;
        // JSON has no NaN/inf; a metric without samples reads 0.
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("%-40s %18.6f  %s\n", defs[i].name, v, defs[i].unit);
        std::snprintf(buf, sizeof buf, "%.17g", v);
        json += std::string(i ? ", \"" : "\"") + defs[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                defs[i].unit + "\"}";
    }
    json += "}}";
    std::printf("attempted %llu, failed %llu, correct %s\n",
                (unsigned long long)attempted,
                (unsigned long long)failed, correct ? "yes" : "NO");
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

std::vector<std::pair<std::string, double>>
selfTimes(const std::vector<const SpanLog *> &logs)
{
    std::vector<std::pair<std::string, double>> out;
    std::map<std::string, std::size_t> slot;
    for (const SpanLog *log : logs) {
        const auto &s = log->spans();
        std::vector<std::int64_t> childNs(s.size(), 0);
        for (const auto &sp : s) {
            if (sp.parent >= 0)
                childNs[sp.parent] += sp.end - sp.begin;
        }
        for (std::size_t i = 0; i < s.size(); ++i) {
            auto [it, fresh] = slot.emplace(s[i].layer, out.size());
            if (fresh)
                out.emplace_back(s[i].layer, 0.0);
            out[it->second].second +=
                static_cast<double>(s[i].end - s[i].begin - childNs[i]) *
                1e-9;
        }
    }
    return out;
}

bool
writeSpans(const std::string &path, const std::string &env,
           const std::vector<const SpanLog *> &logs, std::size_t maxRoots)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "# " << env << "\n";
    f << "# log\tspan\tparent\tlayer\tbegin_ns\tend_ns\n";
    for (std::size_t l = 0; l < logs.size(); ++l) {
        const auto &s = logs[l]->spans();
        std::size_t roots = 0;
        for (std::size_t i = 0; i < s.size(); ++i) {
            if (s[i].parent < 0 && ++roots > maxRoots)
                break;
            f << l << '\t' << i << '\t' << s[i].parent << '\t'
              << s[i].layer << '\t' << s[i].begin << '\t' << s[i].end
              << '\n';
        }
    }
    return static_cast<bool>(f);
}

} // namespace perfbench

namespace
{

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sim-checked|sim-paper|native-bank --seed N --seconds S "
                 "--trace 0|1 [--spans FILE] [--commit SHA]\n"
                 "       perfbench --self-test [--seed N]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseU64(const char *flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o;
    std::string commit = "unknown";
    bool selfTest = false;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = parseU64("--seed", v);
        } else if (a == "--seconds") {
            const std::uint64_t s = parseU64("--seconds", v);
            if (s < 1 || s > 600)
                usage("--seconds must be 1..600");
            o.seconds = static_cast<double>(s);
        } else if (a == "--trace") {
            const std::uint64_t t = parseU64("--trace", v);
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
        } else if (a == "--spans") {
            o.spansPath = v;
        } else if (a == "--commit") {
            commit = v;
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }

    o.env = "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
            " compiler=\"" + compilerName() + "\" build_type=" +
            PERFBENCH_BUILD_TYPE + " commit=" + commit;
    std::printf("# perfbench env: %s\n", o.env.c_str());

    if (selfTest)
        return driftGuard("all", o.seed) ? 0 : 1;
    if (!haveWorkload)
        usage("--workload is required");

    Report r;
    if (o.workload == "sim-checked")
        r = runSimChecked(o);
    else if (o.workload == "sim-paper")
        r = runSimPaper(o);
    else if (o.workload == "native-bank")
        r = runNativeBank(o);
    else
        usage(("unknown workload " + o.workload).c_str());
    r.print(o.trace);
    return 0;
}
