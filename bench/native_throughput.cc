/**
 * @file
 * Real-time throughput grader for native libflextm: N pthreads issue
 * an open-loop Zipfian key-value transaction mix against one shared
 * region for a fixed wall-clock window, and the harness reports real
 * ops/sec for the TL2 backend vs the single-global-lock reference.
 *
 * This is the one harness in bench/ that measures *wall time on the
 * host*, not simulated cycles: it grades the native library, which
 * has no simulator under it.
 *
 *   native_throughput [--backend tl2|gl|both] [--threads N]
 *                     [--words N] [--ops N] [--write-pct N]
 *                     [--theta F] [--millis N] [--rounds N]
 *                     [--seed N] [--grade]
 *
 * --grade runs the acceptance mix (4 threads, read-mostly Zipfian)
 * on both backends, best-of-rounds, and exits nonzero unless TL2
 * beats the global lock.  The global lock serializes whole
 * transactions and - under any real contention - pays a futex
 * round-trip per commit; TL2 reads take two uncontended atomic loads
 * and read-only transactions commit without writing shared metadata,
 * so the read-mostly mix is exactly where decoupled STM must win for
 * the library to be worth shipping.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.hh"
#include "sim/env_util.hh"

namespace
{

using namespace flextm;
using bench::nativeOpsPerSec;
using native::Backend;

struct Params : bench::NativeMix
{
    unsigned millis = 300;
    unsigned rounds = 4;
    std::uint64_t seed = 1;
};

double
bestOpsPerSec(Backend backend, const Params &p)
{
    double best = 0.0;
    for (unsigned r = 0; r < p.rounds; ++r)
        best = std::max(best,
                        nativeOpsPerSec(backend, p, p.millis, p.seed + r));
    return best;
}

void
report(const char *name, double ops, const Params &p)
{
    std::printf("%-12s %10.0f ops/s  (%u threads, %u ops/txn, "
                "%u%% writes, theta=%.2f, %u words)\n",
                name, ops, p.threads, p.opsPerTxn, p.writePct,
                p.theta, p.words);
}

/** The value after option argv[i]; advances i past it. */
const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

/** An integer option value in [@p lo, @p hi], strictly parsed. */
unsigned
argNum(int argc, char **argv, int &i, unsigned lo, unsigned hi)
{
    const char *name = argv[i];
    return static_cast<unsigned>(
        env::parseU64(name, argValue(argc, argv, i), lo, hi));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Params p;
    bool grade = false;
    bool runTl2 = true, runGl = true;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--backend") {
            const std::string b = argValue(argc, argv, i);
            if (b != "tl2" && b != "gl" && b != "both") {
                std::fprintf(stderr, "unknown backend: %s (want tl2, gl "
                                     "or both)\n",
                             b.c_str());
                return 2;
            }
            runTl2 = b != "gl";
            runGl = b != "tl2";
        } else if (a == "--threads") {
            p.threads = argNum(argc, argv, i, 1, 256);
        } else if (a == "--words") {
            p.words = argNum(argc, argv, i, 1, 1u << 24);
        } else if (a == "--ops") {
            p.opsPerTxn = argNum(argc, argv, i, 1, 1024);
        } else if (a == "--write-pct") {
            p.writePct = argNum(argc, argv, i, 0, 100);
        } else if (a == "--theta") {
            p.theta = env::parseDouble("--theta", argValue(argc, argv, i),
                                       0, 10);
        } else if (a == "--millis") {
            p.millis = argNum(argc, argv, i, 1, 600000);
        } else if (a == "--rounds") {
            p.rounds = argNum(argc, argv, i, 1, 1000);
        } else if (a == "--seed") {
            p.seed = env::parseU64("--seed", argValue(argc, argv, i), 0,
                                   UINT64_MAX);
        } else if (a == "--grade") {
            grade = true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
            return 2;
        }
    }

    if (grade) {
        // The acceptance mix: read-mostly Zipfian at 4 threads,
        // best-of-rounds on both sides.
        const bench::NativeBest best =
            bench::nativeBestOf(p, p.millis, p.rounds, p.seed);
        const double tl2 = best.tl2, gl = best.gl;
        report("tl2", tl2, p);
        report("global-lock", gl, p);
        if (tl2 > gl) {
            std::printf("GRADE PASS: tl2/gl = %.2fx\n", tl2 / gl);
            return 0;
        }
        std::printf("GRADE FAIL: tl2/gl = %.2fx (need > 1)\n",
                    gl > 0 ? tl2 / gl : 0.0);
        return 1;
    }

    if (runTl2)
        report("tl2", bestOpsPerSec(Backend::Tl2, p), p);
    if (runGl)
        report("global-lock", bestOpsPerSec(Backend::GlobalLock, p),
               p);
    return 0;
}
