/**
 * @file
 * The traced run: every cell's System is driven directly, with its L4
 * behind a forwarding organization ("traced:<org>") that counts every
 * call into the core layer and, through a forwarding LineDataSource,
 * every call into the data generator. One call in kSampleEvery is
 * timed. Spans nest cell > {build, run}; core calls sit under run and
 * data-generator calls under core, so a layer's self time is its span
 * minus its children. Spans stay in memory as per-cell totals and
 * LogHistograms and are written out when the traced batches end.
 *
 * Two stages have no public boundary inside System::run or the L4, so
 * they are replayed alone: trace decode (ReplayTraceSource::next) over
 * the workload's streams, and codec sizing
 * (HybridCodec::compressedSizeBytes) over lines captured at the
 * forwarding data source.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "compress/hybrid.hpp"
#include "core/data_source.hpp"
#include "core/l4_registry.hpp"
#include "perfbench.hpp"
#include "workloads/trace_source.hpp"

namespace perfbench
{

namespace
{

using namespace dice;
using Clock = std::chrono::steady_clock;

/**
 * Time one call in this many, on every workload. A steady_clock read
 * costs tens of nanoseconds, a large share of one L4 call, so timing
 * every call would distort the run it measures.
 */
constexpr std::uint64_t kSampleEvery = 16;
/** Lines per cell kept for the codec replay. */
constexpr std::size_t kCaptureCap = 1024;
/** Lines in the merged codec replay sample. */
constexpr std::size_t kReplayCap = 16384;

/** Keeps replayed results alive so the loops are not optimized out. */
std::atomic<std::uint64_t> g_sink{0};

/**
 * Cost of one clock read, the part of a timed call's two reads that
 * lands inside its sample: the median of back-to-back steady_clock
 * pairs, measured before the traced batches start. Every sample has it
 * subtracted, and a timed call's two reads are taken off its parent's
 * self time, so layer times carry the program's cost, not the clock's.
 */
std::uint64_t g_clock_ns = 0;

std::uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

std::uint64_t
clockReadNs()
{
    std::vector<std::uint64_t> pairs(1001);
    for (std::uint64_t &ns : pairs) {
        const auto t0 = Clock::now();
        ns = nsSince(t0);
    }
    std::nth_element(pairs.begin(), pairs.begin() + pairs.size() / 2,
                     pairs.end());
    return pairs[pairs.size() / 2];
}

/** Calls into one layer boundary: all counted, one in N timed. */
struct CallStats
{
    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    std::uint64_t sampled_ns = 0;
    LogHistogram hist;

    void
    note(std::uint64_t ns)
    {
        ns = ns > g_clock_ns ? ns - g_clock_ns : 0;
        ++sampled;
        sampled_ns += ns;
        hist.sample(ns);
    }

    double
    meanNs() const
    {
        return sampled == 0 ? 0.0 : double(sampled_ns) / double(sampled);
    }

    /** Time of every call, extrapolated from the timed ones. */
    double estimatedNs() const { return meanNs() * double(calls); }

    void
    merge(const CallStats &o)
    {
        calls += o.calls;
        sampled += o.sampled;
        sampled_ns += o.sampled_ns;
        hist.merge(o.hist);
    }
};

/** Span totals of one traced cell. */
struct CellTrace
{
    CallStats read;    ///< core: DramCache::read
    CallStats install; ///< core: DramCache::install
    CallStats fill;    ///< core: DramCache::completeFill
    CallStats datagen; ///< workloads: LineDataSource::bytes/bytesPair
    std::uint64_t writebacks = 0;
    /** Lines the forwarding data source returned on timed calls. */
    std::vector<Line> lines;
};

/** Times the enclosing call when it is the N-th on @p s. */
class SampledCall
{
  public:
    explicit SampledCall(CallStats &s)
        : stats_(++s.calls % kSampleEvery == 0 ? &s : nullptr)
    {
        if (stats_ != nullptr)
            t0_ = Clock::now();
    }

    ~SampledCall()
    {
        if (stats_ != nullptr)
            stats_->note(nsSince(t0_));
    }

    SampledCall(const SampledCall &) = delete;
    SampledCall &operator=(const SampledCall &) = delete;

    bool timed() const { return stats_ != nullptr; }

  private:
    CallStats *stats_;
    Clock::time_point t0_{};
};

/** Forwards to the System's data generator, counting each call. */
class TracedSource final : public LineDataSource
{
  public:
    TracedSource(const LineDataSource &inner, CellTrace &trace)
        : inner_(inner), trace_(trace)
    {
    }

    Line
    bytes(LineAddr line, std::uint64_t version) const override
    {
        Line out;
        bool timed = false;
        {
            SampledCall call(trace_.datagen);
            out = inner_.bytes(line, version);
            timed = call.timed();
        }
        if (timed)
            capture(out);
        return out;
    }

    void
    bytesPair(LineAddr base, std::uint64_t even_version,
              std::uint64_t odd_version, Line out[2]) const override
    {
        bool timed = false;
        {
            SampledCall call(trace_.datagen);
            inner_.bytesPair(base, even_version, odd_version, out);
            timed = call.timed();
        }
        if (timed) {
            capture(out[0]);
            capture(out[1]);
        }
    }

  private:
    void
    capture(const Line &line) const
    {
        if (trace_.lines.size() < kCaptureCap)
            trace_.lines.push_back(line);
    }

    const LineDataSource &inner_;
    CellTrace &trace_;
};

/**
 * Forwarding organization: builds the real one through the registry,
 * hands it a TracedSource, and counts every call into it. Its own
 * DramDevice and hit counters stay idle (DramCache::device() is not
 * virtual), so the System's RunResult reads zeros for them; exact
 * counters come from inner() instead.
 */
class TracedL4 final : public DramCache
{
  public:
    TracedL4(const L4Config &config, const LineDataSource &source,
             const std::string &inner_org)
        : DramCache(config.base, "traced"), source_(source, trace_),
          inner_(createInner(config, inner_org))
    {
    }

    L4ReadResult
    read(LineAddr line, Cycle now) override
    {
        SampledCall call(trace_.read);
        return inner_->read(line, now);
    }

    L4WriteResult
    install(LineAddr line, std::uint64_t payload, bool dirty, Cycle now,
            bool after_read_miss) override
    {
        L4WriteResult res;
        {
            SampledCall call(trace_.install);
            res = inner_->install(line, payload, dirty, now,
                                  after_read_miss);
        }
        trace_.writebacks += res.writebacks.size();
        return res;
    }

    void
    completeFill(LineAddr line, std::uint64_t payload, Cycle now) override
    {
        SampledCall call(trace_.fill);
        inner_->completeFill(line, payload, now);
    }

    bool contains(LineAddr line) const override
    {
        return inner_->contains(line);
    }
    std::uint64_t validLines() const override
    {
        return inner_->validLines();
    }
    std::uint64_t bytesUsed() const override
    {
        return inner_->bytesUsed();
    }
    const char *organization() const override
    {
        return inner_->organization();
    }
    L4Metrics metrics() const override { return inner_->metrics(); }
    void registerExtraStats(StatRegistry &registry) const override
    {
        inner_->registerExtraStats(registry);
    }
    void
    resetStats() override
    {
        DramCache::resetStats();
        inner_->resetStats();
    }
    StatGroup stats() const override { return inner_->stats(); }

    const DramCache &inner() const { return *inner_; }
    CellTrace &trace() { return trace_; }

  private:
    std::unique_ptr<DramCache>
    createInner(const L4Config &config, const std::string &inner_org)
    {
        L4Config inner = config;
        inner.organization = inner_org;
        return L4Registry::instance().create(inner, source_);
    }

    CellTrace trace_;
    TracedSource source_;
    std::unique_ptr<DramCache> inner_;
};

/** The registry's parameter-group mask of each organization run. */
std::uint32_t
paramGroupsOf(const std::string &org)
{
    if (org == "dice")
        return L4Registry::kUsesComp;
    dice_panic("perfbench: no parameter-group mask for '%s'", org.c_str());
}

/** Everything one traced cell measured. */
struct TracedCell
{
    std::uint64_t build_ns = 0;
    std::uint64_t run_ns = 0;
    std::uint64_t refs = 0;
    std::uint64_t measured_refs = 0;
    bool cycles_match = false;
    CellTrace trace;
    // Exact counters of the measured phase.
    std::uint64_t l3_hits = 0, l3_misses = 0, l3_dirty_evictions = 0;
    std::uint64_t l4_hits = 0, l4_misses = 0, l4_extra_lines = 0;
    std::uint64_t second_probes = 0;
    std::uint64_t l4_ops = 0, l4_bytes = 0;
    std::uint64_t ddr_ops = 0, ddr_bytes = 0;
};

TracedCell
runTracedCell(const Cell &cell, const RunResult &untraced)
{
    TracedCell out;
    SystemConfig cfg = cell.config;
    cfg.l4.organization = "traced:" + cfg.l4.organization;
    std::vector<WorkloadProfile> profiles =
        bench::workloadProfiles(cell.trace, cfg.num_cores);
    std::shared_ptr<const TraceSet> replay =
        TraceArena::instance().acquire(
            cell.trace, cfg.seed, cfg.num_cores, cfg.reference_capacity,
            cfg.warmup_refs_per_core + cfg.refs_per_core + 1, profiles,
            1);

    const auto t_build = Clock::now();
    System sys(cfg, std::move(profiles), std::move(replay));
    out.build_ns = nsSince(t_build);
    const auto t_run = Clock::now();
    const RunResult res = sys.run();
    out.run_ns = nsSince(t_run);

    out.refs = cell.refs();
    out.measured_refs = cell.measuredRefs();
    out.cycles_match = res.core_cycles == untraced.core_cycles;

    auto *l4 = dynamic_cast<TracedL4 *>(sys.l4());
    dice_assert(l4 != nullptr, "perfbench: cell %s is not traced",
                cell.id().c_str());
    out.trace = std::move(l4->trace());

    const SramCache &l3 = sys.l3();
    out.l3_hits = l3.hits();
    out.l3_misses = l3.misses();
    out.l3_dirty_evictions = l3.dirtyEvictions();
    const DramCache &inner = l4->inner();
    out.l4_hits = inner.readHits();
    out.l4_misses = inner.readMisses();
    out.l4_extra_lines = inner.extraLinesSupplied();
    out.second_probes = inner.metrics().second_probes;
    out.l4_ops = inner.device().reads() + inner.device().writes();
    out.l4_bytes = inner.device().bytesMoved();
    const DramDevice &ddr = sys.memory().device();
    out.ddr_ops = ddr.reads() + ddr.writes();
    out.ddr_bytes = ddr.bytesMoved();
    return out;
}

/** ReplayTraceSource::next over every stream, alone: ns per ref. */
double
decodeNsPerRef(
    const std::vector<std::shared_ptr<const TraceSet>> &streams)
{
    std::uint64_t refs = 0;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (const auto &set : streams) {
        for (std::uint32_t cid = 0; cid < set->streams.size(); ++cid) {
            ReplayTraceSource src(TraceSet::stream(set, cid));
            const std::size_t n = set->streams[cid].size();
            for (std::size_t i = 0; i < n; ++i) {
                const MemRef r = src.next();
                sink += r.line ^ r.gap_instr;
            }
            refs += n;
        }
    }
    const std::uint64_t ns = nsSince(t0);
    g_sink.fetch_add(sink, std::memory_order_relaxed);
    return refs == 0 ? 0.0 : double(ns) / double(refs);
}

/** HybridCodec::compressedSizeBytes over @p lines, alone: ns/line. */
double
sizeNsPerLine(const std::vector<Line> &lines)
{
    if (lines.empty())
        return 0.0;
    const HybridCodec codec;
    std::uint64_t sized = 0;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    // Several passes, so the figure does not hang on one cold pass.
    while (sized < 4 * lines.size() || nsSince(t0) < 20'000'000) {
        for (const Line &line : lines)
            sink += codec.compressedSizeBytes(line);
        sized += lines.size();
    }
    const std::uint64_t ns = nsSince(t0);
    g_sink.fetch_add(sink, std::memory_order_relaxed);
    return double(ns) / double(sized);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::string
callJson(const char *name, const CallStats &s)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"%s\": {\"calls\": %llu, \"sampled\": %llu, "
                  "\"sampled_ns\": %llu, \"p50_ns\": %.1f, "
                  "\"p99_ns\": %.1f}",
                  name, static_cast<unsigned long long>(s.calls),
                  static_cast<unsigned long long>(s.sampled),
                  static_cast<unsigned long long>(s.sampled_ns),
                  s.hist.percentile(0.5), s.hist.percentile(0.99));
    return buf;
}

/** Span totals and histogram summaries of every traced cell. */
void
writeTrace(const std::string &path, const std::vector<Cell> &cells,
           const std::vector<TracedCell> &traced)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    out << "{\"sample_every\": " << kSampleEvery << ", \"cells\": [";
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const TracedCell &t = traced[i];
        out << (i ? ",\n " : "\n ") << "{\"cell\": \""
            << cells[i % cells.size()].id()
            << "\", \"batch\": " << i / cells.size()
            << ", \"build_ns\": " << t.build_ns
            << ", \"run_ns\": " << t.run_ns << ", \"refs\": " << t.refs
            << ", " << callJson("read", t.trace.read) << ", "
            << callJson("install", t.trace.install) << ", "
            << callJson("complete_fill", t.trace.fill) << ", "
            << callJson("datagen", t.trace.datagen) << "}";
    }
    out << "\n]}\n";
}

/** Register "traced:<org>" for every organization @p cells use. */
void
registerTracedOrganizations(const std::vector<Cell> &cells)
{
    L4Registry &registry = L4Registry::instance();
    for (const Cell &c : cells) {
        const std::string org = c.config.l4.organization;
        if (registry.known("traced:" + org))
            continue;
        registry.add("traced:" + org, paramGroupsOf(org),
                     [org](const L4Config &config,
                           const LineDataSource &source) {
                         return std::make_unique<TracedL4>(config, source,
                                                           org);
                     });
    }
}

} // namespace

TracedOutcome
runTraced(const std::vector<Cell> &cells, const BatchResults &untraced,
          const std::vector<std::shared_ptr<const TraceSet>> &streams,
          double seconds, unsigned jobs, const std::string &trace_out)
{
    registerTracedOrganizations(cells);
    g_clock_ns = clockReadNs();
    TracedOutcome outcome;
    std::vector<TracedCell> traced;
    std::vector<double> rates;
    double elapsed = 0.0;
    do {
        std::vector<TracedCell> batch(cells.size());
        const auto t0 = Clock::now();
        parallelFor(cells.size(), jobs,
                    [&cells, &untraced, &batch](std::size_t i) {
                        batch[i] = runTracedCell(cells[i], untraced[i]);
                    });
        const double wall_s = double(nsSince(t0)) * 1e-9;
        std::uint64_t refs = 0;
        for (TracedCell &t : batch) {
            refs += t.refs;
            traced.push_back(std::move(t));
        }
        rates.push_back(double(refs) / wall_s);
        elapsed += wall_s;
    } while (elapsed + elapsed / double(rates.size()) <= seconds);
    outcome.refs_per_s = median(rates);

    TracedCell sum;
    CellTrace &st = sum.trace;
    std::vector<Line> sample;
    std::uint64_t core_ns = 0;
    std::uint64_t datagen_ns = 0;
    std::uint64_t core_timed = 0;
    std::uint64_t datagen_timed = 0;
    for (const TracedCell &t : traced) {
        ++outcome.attempted;
        if (!t.cycles_match)
            ++outcome.failed;
        sum.build_ns += t.build_ns;
        sum.run_ns += t.run_ns;
        sum.refs += t.refs;
        sum.measured_refs += t.measured_refs;
        st.read.merge(t.trace.read);
        st.install.merge(t.trace.install);
        st.fill.merge(t.trace.fill);
        st.datagen.merge(t.trace.datagen);
        st.writebacks += t.trace.writebacks;
        // Extrapolate per cell: each cell has its own sampled mean.
        core_ns += std::uint64_t(t.trace.read.estimatedNs() +
                                 t.trace.install.estimatedNs() +
                                 t.trace.fill.estimatedNs());
        datagen_ns += std::uint64_t(t.trace.datagen.estimatedNs());
        core_timed += t.trace.read.sampled + t.trace.install.sampled +
                      t.trace.fill.sampled;
        datagen_timed += t.trace.datagen.sampled;
        for (const Line &line : t.trace.lines) {
            if (sample.size() < kReplayCap)
                sample.push_back(line);
        }
        sum.l3_hits += t.l3_hits;
        sum.l3_misses += t.l3_misses;
        sum.l3_dirty_evictions += t.l3_dirty_evictions;
        sum.l4_hits += t.l4_hits;
        sum.l4_misses += t.l4_misses;
        sum.l4_extra_lines += t.l4_extra_lines;
        sum.second_probes += t.second_probes;
        sum.l4_ops += t.l4_ops;
        sum.l4_bytes += t.l4_bytes;
        sum.ddr_ops += t.ddr_ops;
        sum.ddr_bytes += t.ddr_bytes;
    }
    writeTrace(trace_out, cells, traced);
    std::printf("# diagnostic: clock read %llu ns, taken off every timed "
                "call; codec replay over %zu captured lines; span totals "
                "in %s\n",
                static_cast<unsigned long long>(g_clock_ns), sample.size(),
                trace_out.c_str());

    // A timed call's two clock reads stay in the spans around it: a core
    // call's in run, a data-generator call's in its core call and run.
    const double core_clock = 2.0 * double(g_clock_ns) * double(core_timed);
    const double datagen_clock =
        2.0 * double(g_clock_ns) * double(datagen_timed);
    const double run_ns = double(sum.run_ns) - core_clock - datagen_clock;
    const double core = double(core_ns) - datagen_clock;
    const double refs = double(sum.refs);
    const double measured = double(sum.measured_refs);
    const double l4_reads = double(sum.l4_hits + sum.l4_misses);
    outcome.metrics = {
        {"workloads.datagen_per_ref", double(st.datagen.calls) / refs,
         "1/ref"},
        {"workloads.datagen_ns", st.datagen.meanNs(), "ns/call"},
        {"sim.build_ms",
         double(sum.build_ns) * 1e-6 / double(traced.size()), "ms"},
        {"sim.run_ns_per_ref", run_ns / refs, "ns/ref"},
        {"sim.self_ns_per_ref", (run_ns - core) / refs, "ns/ref"},
        {"sim.decode_ns_per_ref", decodeNsPerRef(streams), "ns/ref"},
        {"cache.l3_hit_rate",
         ratio(double(sum.l3_hits), double(sum.l3_hits + sum.l3_misses)),
         "ratio"},
        {"cache.l3_misses_per_ref", double(sum.l3_misses) / measured,
         "1/ref"},
        {"cache.l3_dirty_evictions_per_ref",
         double(sum.l3_dirty_evictions) / measured, "1/ref"},
        {"core.read_per_ref", double(st.read.calls) / refs, "1/ref"},
        {"core.read_ns", st.read.meanNs(), "ns/call"},
        {"core.install_per_ref", double(st.install.calls) / refs,
         "1/ref"},
        {"core.install_ns", st.install.meanNs(), "ns/call"},
        {"core.writebacks_per_install",
         ratio(double(st.writebacks), double(st.install.calls)),
         "1/install"},
        {"core.share", ratio(core, run_ns), "ratio"},
        {"core.self_ns_per_ref", (core - double(datagen_ns)) / refs,
         "ns/ref"},
        {"core.hit_rate", ratio(double(sum.l4_hits), l4_reads), "ratio"},
        {"core.second_probes_per_read",
         ratio(double(sum.second_probes), l4_reads), "1/read"},
        {"core.extra_lines_per_read",
         ratio(double(sum.l4_extra_lines), l4_reads), "1/read"},
        {"compress.size_ns_per_line", sizeNsPerLine(sample), "ns/line"},
        {"dram.l4_ops_per_ref", double(sum.l4_ops) / measured, "1/ref"},
        {"dram.l4_bytes_per_ref", double(sum.l4_bytes) / measured,
         "B/ref"},
        {"dram.ddr_ops_per_ref", double(sum.ddr_ops) / measured, "1/ref"},
        {"dram.ddr_bytes_per_ref", double(sum.ddr_bytes) / measured,
         "B/ref"},
    };
    return outcome;
}

} // namespace perfbench
