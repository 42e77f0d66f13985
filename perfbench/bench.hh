/**
 * @file
 * Shared pieces of the perfbench benchmark: run options, the report
 * a run prints (one JSON object on the last line of stdout),
 * percentile helpers, and the in-memory span log the traced runs
 * keep and write out when they end.
 *
 * Every span is taken by the benchmark's own code around a call into
 * one of the repository's public functions, so the ledger measures
 * each layer from outside and the library needs no instrumentation.
 */

#ifndef FLEXTM_PERFBENCH_BENCH_HH
#define FLEXTM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options common to every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where a traced run writes its spans (empty: not written). */
    std::string spansPath;
    /** One-line build/host description, stamped on every output. */
    std::string env;
};

/** Nearest-rank percentile, p in [0, 100]; 0 for no samples.
 *  Reorders @p v. */
double percentile(std::vector<double> &v, double p);

inline double
median(std::vector<double> v)
{
    return percentile(v, 50.0);
}

/** A reported metric's name and unit (BENCHMARK.json lists the same). */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed by every workload with --trace 0. */
extern const std::vector<MetricDef> kEndToEnd;
/** Printed by every workload with --trace 1; a layer a workload does
 *  not exercise reads 0. */
extern const std::vector<MetricDef> kPerLayer;

/** What one run reports. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> values;

    void set(const std::string &name, double v) { values[name] = v; }

    /** Print the metrics of the run's kind (per-layer when @p trace)
     *  as a table, then the JSON result line. */
    void print(bool trace) const;
};

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/**
 * Spans of one OS thread, kept in memory.  A span names its layer,
 * the span that caused it (-1 for a root) and its host interval in
 * nanoseconds since the run's epoch.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *layer;
        std::int32_t parent;
        std::int64_t begin;
        std::int64_t end;
    };

    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    /** Record a finished span; returns its index. */
    std::int32_t
    add(const char *layer, std::int32_t parent, Clock::time_point b,
        Clock::time_point e)
    {
        spans_.push_back({layer, parent, nanos(b), nanos(e)});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    /** Open a span whose end is not known yet (close() sets it). */
    std::int32_t
    open(const char *layer, std::int32_t parent, Clock::time_point b)
    {
        return add(layer, parent, b, b);
    }

    void
    close(std::int32_t i, Clock::time_point e)
    {
        spans_[i].end = nanos(e);
    }

    void clear() { spans_.clear(); }
    const std::vector<Span> &spans() const { return spans_; }
    void reserve(std::size_t n) { spans_.reserve(n); }

  private:
    std::int64_t
    nanos(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch_)
            .count();
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** Seconds of self time per layer - a span's duration minus the
 *  part its children cover - summed over @p logs, in first-seen
 *  layer order. */
std::vector<std::pair<std::string, double>>
selfTimes(const std::vector<const SpanLog *> &logs);

/** Write @p logs as tab-separated rows under an environment header,
 *  each log up to its first @p maxRoots root spans and their
 *  children.  Returns false when the file cannot be written. */
bool writeSpans(const std::string &path, const std::string &env,
                const std::vector<const SpanLog *> &logs,
                std::size_t maxRoots = SIZE_MAX);

/** @name Workloads (each returns the run's report) */
/// @{
Report runSimChecked(const Options &o);
Report runSimPaper(const Options &o);
Report runNativeBank(const Options &o);
/// @}

/**
 * Drift guard for the benchmark's phase-split cell driver: run a few
 * cells of each simulator workload through it and through the
 * repository's own harness (runFaultedExperiment for sim-checked,
 * runExperiment for sim-paper) on the same seeds, and compare
 * commits, aborts, cycles and checked operations.  @p which is
 * "sim-checked", "sim-paper" or "all".  Prints one line per cell.
 */
bool driftGuard(const std::string &which, std::uint64_t seed);

} // namespace perfbench

#endif // FLEXTM_PERFBENCH_BENCH_HH
