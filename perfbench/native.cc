/**
 * @file
 * native-bank: libflextm's TL2 backend on real threads, in a closed
 * loop over a pre-generated bank trace.
 *
 * Each of two threads runs its own stream of transactions back to
 * back.  Nine in ten are read-only lookups of four Zipfian-chosen
 * accounts; the rest move a small amount between two accounts, so
 * the lock/commit/abort path runs beside the read-only fast path.
 * Transfers conserve money, so the sum over all accounts after each
 * pass checks the library's output.  Two threads, not four: on a
 * shared 4-CPU host four threads measured 49-110M ops/s from run to
 * run, two stayed within about 10%.
 */

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "native/access_log.hh"
#include "native/tm.hh"
#include "native/workload_trace.hh"
#include "perfbench/bench.hh"

namespace perfbench
{

namespace
{

using namespace flextm::native;

constexpr unsigned kThreads = 2;
constexpr std::uint32_t kAccounts = 4096;
constexpr unsigned kTxnsPerThread = 100000;
/** Times each thread runs its stream in one timed pass: a pass of
 *  about a third of a second spans the multi-second swings in
 *  speed a shared host shows, where a single trace's 30 ms does not. */
constexpr unsigned kRounds = 10;
constexpr double kTheta = 0.8;
constexpr unsigned kTransferPct = 10;
constexpr std::int64_t kInitialBalance = 1000;
/** Transactions per thread whose spans a traced run writes out. */
constexpr std::size_t kWrittenTxns = 2000;

/** A lookup (amount 0) reads all four accounts; a transfer moves
 *  amount from account[0] to account[1]. */
struct BankTxn
{
    std::uint32_t account[4];
    std::int64_t amount;
};

using Trace = std::vector<std::vector<BankTxn>>;

Trace
makeTrace(std::uint64_t seed)
{
    const ZipfCdf zipf(kAccounts, kTheta);
    Trace trace(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        flextm::Rng rng(seed * 0x9e3779b97f4a7c15ULL + t + 1);
        trace[t].resize(kTxnsPerThread);
        for (BankTxn &x : trace[t]) {
            x.amount = 0;
            if (rng.percent(kTransferPct)) {
                x.amount = 1 + static_cast<std::int64_t>(rng.nextInt(100));
                x.account[0] = zipf.sample(rng);
                do {
                    x.account[1] = zipf.sample(rng);
                } while (x.account[1] == x.account[0]);
            } else {
                for (std::uint32_t &a : x.account)
                    a = zipf.sample(rng);
            }
        }
    }
    return trace;
}

struct ThreadOut
{
    explicit ThreadOut(Clock::time_point epoch) : spans(epoch) {}

    std::uint64_t attempts = 0;
    /** Host microseconds from the first tm_begin to the successful
     *  tm_end of each transaction, retries included. */
    std::vector<double> latUs;
    Clock::time_point end;
    /** A traced pass times every call but keeps the spans of its
     *  first round only, which bounds their memory. */
    SpanLog spans;
    bool keepSpans = false;
    std::int64_t sink = 0;
};

/** Call a tm_* function; a traced run records it as a child span. */
template <bool Traced, typename F>
inline bool
tmCall(ThreadOut &out, const char *layer, std::int32_t parent, F &&f)
{
    if constexpr (!Traced) {
        return f();
    } else {
        const auto b = Clock::now();
        const bool ok = f();
        const auto e = Clock::now();
        if (out.keepSpans)
            out.spans.add(layer, parent, b, e);
        return ok;
    }
}

template <bool Traced>
bool
attempt(shared_t sh, std::int64_t *acct, const BankTxn &x, ThreadOut &out,
        std::int32_t span)
{
    ++out.attempts;
    const bool ro = x.amount == 0;
    tx_t tx = invalid_tx;
    tmCall<Traced>(out, "tm_begin", span, [&] {
        tx = tm_begin(sh, ro);
        return true;
    });
    std::int64_t v[4];
    const unsigned reads = ro ? 4 : 2;
    for (unsigned k = 0; k < reads; ++k) {
        if (!tmCall<Traced>(out, "tm_read", span, [&] {
                return tm_read(sh, tx, &acct[x.account[k]], 8, &v[k]);
            }))
            return false;
    }
    if (ro) {
        out.sink += v[0] + v[1] + v[2] + v[3];
    } else {
        v[0] -= x.amount;
        v[1] += x.amount;
        for (unsigned k = 0; k < 2; ++k) {
            if (!tmCall<Traced>(out, "tm_write", span, [&] {
                    return tm_write(sh, tx, &v[k], 8, &acct[x.account[k]]);
                }))
                return false;
        }
    }
    return tmCall<Traced>(out, "tm_end", span,
                          [&] { return tm_end(sh, tx); });
}

template <bool Traced>
void
runStream(shared_t sh, const std::vector<BankTxn> &txns, unsigned rounds,
          ThreadOut &out, std::atomic<unsigned> &ready,
          const std::atomic<bool> &go)
{
    auto *acct = static_cast<std::int64_t *>(tm_start(sh));
    out.latUs.resize(txns.size() * rounds);
    if (Traced)
        out.spans.reserve(txns.size() * 6);
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (!go.load(std::memory_order_acquire))
        std::this_thread::yield();
    double *lat = out.latUs.data();
    for (unsigned round = 0; round < rounds; ++round) {
        out.keepSpans = Traced && round == 0;
        for (const BankTxn &x : txns) {
            const auto b = Clock::now();
            const std::int32_t span =
                out.keepSpans ? out.spans.open("txn", -1, b) : -1;
            while (!attempt<Traced>(sh, acct, x, out, span)) {
            }
            const auto e = Clock::now();
            if (out.keepSpans)
                out.spans.close(span, e);
            *lat++ = std::chrono::duration<double, std::micro>(e - b).count();
        }
    }
    out.end = Clock::now();
}

/** Give every account its opening balance, transactionally (so an
 *  attached access log sees the writes). */
void
openAccounts(shared_t sh)
{
    auto *acct = static_cast<std::int64_t *>(tm_start(sh));
    constexpr std::uint32_t kChunk = 256;
    for (std::uint32_t base = 0; base < kAccounts; base += kChunk) {
        for (;;) {
            const tx_t tx = tm_begin(sh, false);
            bool ok = true;
            for (std::uint32_t a = base; ok && a < base + kChunk; ++a)
                ok = tm_write(sh, tx, &kInitialBalance, 8, &acct[a]);
            if (ok && tm_end(sh, tx))
                break;
        }
    }
}

struct Pass
{
    double setupS = 0;
    double wallS = 0;
    bool balanced = false;
    std::uint64_t commits = 0;
    std::uint64_t attempts = 0;
    /** Wall minus the average thread's transaction time. */
    double uncoveredS = 0;
    std::vector<ThreadOut> outs;
};

Pass
runPass(std::uint64_t seed, unsigned rounds, bool traced, AccessLog *log,
        Clock::time_point epoch)
{
    Pass p;
    const auto s0 = Clock::now();
    const Trace trace = makeTrace(seed);
    shared_t sh = tm_create_with(std::size_t{kAccounts} * 8, 8, Backend::Tl2);
    if (sh == invalid_shared) {
        std::fprintf(stderr, "perfbench: tm_create failed\n");
        std::exit(1);
    }
    if (log)
        tm_set_logging(sh, log);
    openAccounts(sh);
    p.setupS = secondsSince(s0);

    for (unsigned t = 0; t < kThreads; ++t)
        p.outs.emplace_back(epoch);
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            if (traced)
                runStream<true>(sh, trace[t], rounds, p.outs[t], ready, go);
            else
                runStream<false>(sh, trace[t], rounds, p.outs[t], ready, go);
        });
    }
    while (ready.load(std::memory_order_acquire) < kThreads)
        std::this_thread::yield();
    const auto w0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread &th : threads)
        th.join();

    Clock::time_point end = w0;
    double busy = 0;
    for (const ThreadOut &o : p.outs) {
        end = std::max(end, o.end);
        p.attempts += o.attempts;
        p.commits += o.latUs.size();
        for (const double us : o.latUs)
            busy += us * 1e-6;
    }
    p.wallS = std::chrono::duration<double>(end - w0).count();
    p.uncoveredS = p.wallS - busy / kThreads;

    const auto *acct = static_cast<const std::int64_t *>(tm_start(sh));
    std::int64_t sum = 0;
    for (std::uint32_t a = 0; a < kAccounts; ++a)
        sum += acct[a];
    p.balanced = sum == kInitialBalance * kAccounts;
    if (log)
        tm_set_logging(sh, nullptr);
    tm_destroy(sh);
    return p;
}

double
pct(const std::vector<double> &xs, double p)
{
    std::vector<double> v = xs;
    return percentile(v, p);
}

/** Latencies of one pass: all, read-only and update transactions. */
void
latencies(const Trace &trace, const Pass &p, std::vector<double> &all,
          std::vector<double> &ro, std::vector<double> &upd)
{
    for (unsigned t = 0; t < kThreads; ++t) {
        const std::vector<double> &lat = p.outs[t].latUs;
        for (std::size_t i = 0; i < lat.size(); ++i) {
            all.push_back(lat[i]);
            const BankTxn &x = trace[t][i % trace[t].size()];
            (x.amount == 0 ? ro : upd).push_back(lat[i]);
        }
    }
}

} // anonymous namespace

Report
runNativeBank(const Options &o)
{
    Report rep;
    const auto start = Clock::now();
    const Trace trace = makeTrace(o.seed);
    std::vector<double> setup, wall, commitsPerS, p50, p99, opsPerS, apc,
        roP50, updP50, updP99, tracedWall, uncovered;
    std::vector<double> callNs[4];
    const char *const kCalls[4] = {"tm_begin", "tm_read", "tm_write",
                                   "tm_end"};
    Pass lastTraced;

    // A traced run alternates untraced and traced passes, so the
    // difference of their medians is the tracing overhead.
    const unsigned minPasses = o.trace ? 4 : 3;
    for (unsigned pass = 0;
         pass < minPasses || secondsSince(start) < o.seconds; ++pass) {
        const bool tracing = o.trace && pass % 2 == 1;
        Pass p = runPass(o.seed, kRounds, tracing, nullptr, start);
        rep.attempted += p.commits;
        if (!p.balanced) {
            rep.failed += p.commits;
            std::printf("FAILED pass %u: account total is not conserved\n",
                        pass);
        }
        if (tracing) {
            tracedWall.push_back(p.wallS);
            uncovered.push_back(p.uncoveredS);
            for (const ThreadOut &out : p.outs) {
                for (const SpanLog::Span &s : out.spans.spans()) {
                    for (unsigned c = 0; c < 4; ++c) {
                        if (std::strcmp(s.layer, kCalls[c]) == 0)
                            callNs[c].push_back(
                                static_cast<double>(s.end - s.begin));
                    }
                }
            }
            lastTraced = std::move(p);
            continue;
        }
        std::vector<double> all, ro, upd;
        latencies(trace, p, all, ro, upd);
        p50.push_back(percentile(all, 50));
        p99.push_back(percentile(all, 99));
        std::printf("pass %u: wall %.4f s, setup %.4f s, txn p50 %.3f us, "
                    "p99 %.3f us\n",
                    pass, p.wallS, p.setupS, p50.back(), p99.back());
        setup.push_back(p.setupS);
        wall.push_back(p.wallS);
        commitsPerS.push_back(static_cast<double>(p.commits) / p.wallS);
        // Every transaction reads or writes four accounts.
        opsPerS.push_back(4.0 * static_cast<double>(p.commits) / p.wallS);
        apc.push_back(static_cast<double>(p.attempts) /
                      static_cast<double>(p.commits));
        roP50.push_back(percentile(ro, 50));
        updP50.push_back(percentile(upd, 50));
        updP99.push_back(percentile(upd, 99));
    }
    std::printf("native-bank seed %" PRIu64 ": %u threads x %u rounds x "
                "%u txns, %zu passes, account total checked after each\n",
                o.seed, kThreads, kRounds, kTxnsPerThread,
                wall.size() + tracedWall.size());

    if (!o.trace) {
        rep.set("wall_s", median(wall));
        rep.set("setup_s", median(setup));
        rep.set("commits_per_s", median(commitsPerS));
        rep.set("peak_rss_mb", peakRssMb());
        return rep;
    }

    // One more pass with an access log attached: every committed
    // transaction is replayed in stamp order against shadow memory.
    AccessLog log;
    const Pass logged = runPass(o.seed, 1, false, &log, start);
    const AccessLog::Report lr = log.validate();
    rep.attempted += logged.commits;
    if (!lr.ok || !logged.balanced) {
        rep.failed += logged.commits;
        std::printf("FAILED logged pass: %s\n",
                    lr.ok ? "account total is not conserved"
                          : lr.message.c_str());
    }
    std::printf("access log replay: %" PRIu64 " transactions, %" PRIu64
                " operations, %s\n",
                lr.checkedTxns, lr.checkedOps, lr.ok ? "serializable" : "FAILED");

    rep.set("native.ops_per_s", median(opsPerS));
    rep.set("native.txn_us_p50", median(p50));
    rep.set("native.txn_us_p99", median(p99));
    rep.set("native.attempts_per_commit", median(apc));
    rep.set("native.ro_txn_us_p50", median(roP50));
    rep.set("native.update_txn_us_p50", median(updP50));
    rep.set("native.update_txn_us_p99", median(updP99));
    rep.set("native.tm_begin_ns_p50", pct(callNs[0], 50));
    rep.set("native.tm_read_ns_p50", pct(callNs[1], 50));
    rep.set("native.tm_write_ns_p50", pct(callNs[2], 50));
    rep.set("native.tm_end_ns_p50", pct(callNs[3], 50));
    rep.set("native.tm_end_ns_p99", pct(callNs[3], 99));
    const double tw = median(tracedWall);
    rep.set("trace.wall_s", tw);
    rep.set("trace.overhead_s", tw - median(wall));
    rep.set("trace.unaccounted_s", median(uncovered));

    std::vector<const SpanLog *> logs;
    for (const ThreadOut &out : lastTraced.outs)
        logs.push_back(&out.spans);
    const auto self = selfTimes(logs);
    double spanned = 0;
    for (const auto &ls : self)
        spanned += ls.second;
    std::printf("layer self time, first round of the last traced pass "
                "(%u threads, %.4f s of spans):\n",
                kThreads, spanned);
    for (const auto &[layer, s] : self)
        std::printf("  %-12s %10.4f s  %6.2f%%\n", layer.c_str(), s,
                    100.0 * s / spanned);
    std::printf("tracing overhead: traced wall %.4f s - untraced wall "
                "%.4f s = %+.4f s\n",
                tw, median(wall), tw - median(wall));

    // Keep the file small: the first kWrittenTxns transactions of
    // each thread.
    if (!o.spansPath.empty() &&
        !writeSpans(o.spansPath, o.env, logs, kWrittenTxns)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o.spansPath.c_str());
        rep.correct = false;
    }
    return rep;
}

} // namespace perfbench
