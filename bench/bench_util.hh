/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: thread
 * sweeps, normalization to 1-thread CGL (the paper's throughput
 * metric), aligned table printing, and the timed libflextm window
 * behind native_throughput and perf_sim's native cell.
 */

#ifndef FLEXTM_BENCH_BENCH_UTIL_HH
#define FLEXTM_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "native/tm.hh"
#include "native/workload_trace.hh"
#include "workloads/workload.hh"

namespace flextm::bench
{

/** Thread counts swept in the paper's figures. */
inline const std::vector<unsigned> threadSweep = {1, 2, 4, 8, 16};

/** Per-workload operation budgets chosen so each experiment runs in
 *  seconds of host time while keeping hundreds of transactions per
 *  thread at 16 threads. */
inline unsigned
opsFor(WorkloadKind wk)
{
    switch (wk) {
      case WorkloadKind::RandomGraph:
        return 320;
      case WorkloadKind::Delaunay:
        return 160;
      case WorkloadKind::VacationLow:
      case WorkloadKind::VacationHigh:
        return 480;
      case WorkloadKind::HotSpot:
        return 480;
      case WorkloadKind::CyclicConflict:
        return 320;
      default:
        return 1600;
    }
}

inline ExperimentOptions
defaultOptions(WorkloadKind wk, unsigned threads,
               std::uint64_t seed = 1)
{
    ExperimentOptions o;
    o.threads = threads;
    o.totalOps = opsFor(wk);
    o.seed = seed;
    o.machine.cores = 16;
    o.machine.memoryBytes = 128u << 20;
    return o;
}

/** Seeds averaged per data point (interleaving variance at high
 *  thread counts is substantial, as on real hardware). */
inline constexpr unsigned benchSeeds = 3;

/**
 * Run one (workload, runtime, threads) cell over several seeds and
 * return the averaged result (conflict stats: max over seeds).
 */
inline ExperimentResult
avgExperiment(WorkloadKind wk, RuntimeKind rk, unsigned threads,
              CmPolicy policy = CmPolicy::Polka,
              bool unbounded_victim = false)
{
    ExperimentResult acc;
    for (unsigned s = 1; s <= benchSeeds; ++s) {
        ExperimentOptions o = defaultOptions(wk, threads, s);
        o.machine.cmPolicy = policy;
        o.machine.unboundedVictimBuffer = unbounded_victim;
        const ExperimentResult r = runExperiment(wk, rk, o);
        acc.throughput += r.throughput / benchSeeds;
        acc.commits += r.commits;
        acc.aborts += r.aborts;
        acc.cycles += r.cycles / benchSeeds;
        acc.otSpills += r.otSpills;
        acc.conflictMedian =
            std::max(acc.conflictMedian, r.conflictMedian);
        acc.conflictMax = std::max(acc.conflictMax, r.conflictMax);
    }
    acc.aborts /= benchSeeds;
    acc.commits /= benchSeeds;
    return acc;
}

/** Baseline: 1-thread coarse-grain locks (Figure 4 normalization). */
inline double
cglBaseline(WorkloadKind wk)
{
    return avgExperiment(wk, RuntimeKind::Cgl, 1).throughput;
}

inline void
printHeader(const std::string &title,
            const std::vector<std::string> &runtimes)
{
    std::printf("\n%s\n", title.c_str());
    std::printf("%8s", "threads");
    for (const auto &r : runtimes)
        std::printf(" %14s", r.c_str());
    std::printf("\n");
}

inline void
printRow(unsigned threads, const std::vector<double> &values)
{
    std::printf("%8u", threads);
    for (double v : values)
        std::printf(" %14.2f", v);
    std::printf("\n");
}

/** A native throughput mix: Zipfian key-value transactions. */
struct NativeMix
{
    unsigned threads = 4;
    std::uint32_t words = 8192;
    unsigned opsPerTxn = 4;
    /** Per-op write probability.  The default mix is read-mostly
     *  (99% reads; ~96% of 4-op transactions are declared read-only),
     *  the regime decoupled STM is built for. */
    unsigned writePct = 1;
    double theta = 0.7;
};

/**
 * One timed libflextm window of @p millis: every thread issues
 * transactions back to back until the stop flag flips, and the
 * result is ops/sec (committed transactions times ops per
 * transaction).  The key/op streams are pre-generated (YCSB-style)
 * so the window times the library, not the Zipf sampler; each thread
 * cycles through its private stream.
 */
inline double
nativeOpsPerSec(native::Backend backend, const NativeMix &mix,
                unsigned millis, std::uint64_t seed)
{
    native::shared_t sh = native::tm_create_with(
        std::size_t{mix.words} * 8, 8, backend);
    if (sh == native::invalid_shared) {
        std::fprintf(stderr, "tm_create failed\n");
        std::exit(2);
    }
    auto *base = static_cast<std::uint64_t *>(native::tm_start(sh));

    native::TraceParams tp;
    tp.seed = seed;
    tp.threads = mix.threads;
    tp.words = mix.words;
    tp.txnsPerThread = 4096;
    tp.opsPerTxn = mix.opsPerTxn;
    tp.writePct = mix.writePct;
    tp.theta = mix.theta;
    const native::WorkloadTrace trace = makeZipfianTrace(tp);

    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> commits(mix.threads, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < mix.threads; ++t) {
        threads.emplace_back([&, t] {
            const auto &stream = trace.perThread[t];
            // Declared-read-only flags, precomputed per transaction.
            std::vector<bool> ro(stream.size(), true);
            for (std::size_t i = 0; i < stream.size(); ++i) {
                for (const auto &op : stream[i].ops)
                    ro[i] = ro[i] && !op.isWrite;
            }
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            std::uint64_t mine = 0;
            std::size_t next = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const native::TraceTxn &txn = stream[next];
                const bool is_ro = ro[next];
                if (++next == stream.size())
                    next = 0;
            retry:
                const native::tx_t tx = native::tm_begin(sh, is_ro);
                for (const auto &op : txn.ops) {
                    std::uint64_t v = op.value;
                    const bool ok =
                        op.isWrite
                            ? native::tm_write(sh, tx, &v, 8,
                                               &base[op.word])
                            : native::tm_read(sh, tx, &base[op.word],
                                              8, &v);
                    if (!ok)
                        goto retry;
                }
                if (!native::tm_end(sh, tx))
                    goto retry;
                ++mine;
            }
            commits[t] = mine;
        });
    }

    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(millis));
    stop.store(true, std::memory_order_relaxed);
    for (auto &th : threads)
        th.join();
    const auto t1 = std::chrono::steady_clock::now();

    std::uint64_t total = 0;
    for (const std::uint64_t n : commits)
        total += n;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    native::tm_destroy(sh);
    return secs <= 0.0 ? 0.0
                       : static_cast<double>(total) * mix.opsPerTxn /
                             secs;
}

/** Best-of-rounds ops/sec of TL2 and of the global lock. */
struct NativeBest
{
    double tl2 = 0.0;
    double gl = 0.0;
};

/**
 * @p rounds windows per backend, best kept, seeds @p seed onwards.
 * The backends' windows interleave, so a noisy phase on a small
 * shared box cannot systematically penalize one side.
 */
inline NativeBest
nativeBestOf(const NativeMix &mix, unsigned millis, unsigned rounds,
             std::uint64_t seed)
{
    NativeBest b;
    for (unsigned r = 0; r < rounds; ++r) {
        b.tl2 = std::max(b.tl2, nativeOpsPerSec(native::Backend::Tl2, mix,
                                                millis, seed + r));
        b.gl = std::max(b.gl, nativeOpsPerSec(native::Backend::GlobalLock,
                                              mix, millis, seed + r));
    }
    return b;
}

} // namespace flextm::bench

#endif // FLEXTM_BENCH_BENCH_UTIL_HH
