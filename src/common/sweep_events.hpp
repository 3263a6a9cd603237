/**
 * @file
 * Distributed sweep observability: per-participant event journals,
 * the one fold over them that every status consumer shares,
 * process-wide phase-latency metrics, and the cross-participant
 * timeline merge.
 *
 * A multi-process (possibly multi-host) sweep has no shared memory,
 * so every process that writes into a sweep results directory — the
 * `--serve` coordinator, its spawned `--worker`s, `--join` attachers,
 * and a serial run that sets DICE_SWEEP_RESULTS — appends structured
 * events to its own journal `<results>/events/<participant>.jsonl`:
 *
 *   {"ev":"epoch","participant":..,"pid":..,"host":..,"tid":..,
 *    "wall_us":..,"mono_us":..}            first record
 *   {"ev":"mark","name":..,"detail":..,...}    e.g. worker spawns
 *   {"ev":"claim","cell":..,"requeued":0|1,
 *    "wait_us":..,"acquire_us":..,...}     queue claim (requeued=1:
 *                                          acquired by breaking a
 *                                          dead holder's lease)
 *   {"ev":"begin","phase":..,"cell":..,...}    span entry (lets a
 *                                          live tail show in-flight
 *                                          work and a post-mortem
 *                                          show where a worker died)
 *   {"ev":"phase","phase":..,"cell":..,"start_us":..,"dur_us":..,...}
 *                                          span exit (JournalSpan)
 *   {"ev":"publish","cell":..,...}
 *   {"ev":"lease","op":"refresh"|"break"|"release","cell":..,
 *    "dur_us":..,...}
 *   {"ev":"arena","op":"generate"|"evict","key":..,"bytes":..,...}
 *                                          trace-arena stream traffic
 *   {"ev":"batch","batch":..,"cells":..,"jobs":..,"span_us":..,...}
 *                                          end of one runCells batch
 *                                          this participant worked on
 *
 * Spans are the phases of a fresh cell (cell, generate, simulate,
 * export) and System::run's warmup and measure. Every record carries
 * "tid", the writing thread's small lane index (the thread that opens
 * the journal is lane 0), so the merged timeline draws each thread's
 * spans on a lane of their own, where they nest.
 *
 * The journal is the participant's only status file, and one
 * process's: the owning coordinator (or serial run) clears the events
 * directory when it starts, and every other participant works one
 * batch and exits. foldJournal() turns it into the participant's
 * record — cells, requeues, busy time, utilization, arena traffic,
 * phase histograms, slowest cell, in-flight cell — and the
 * coordinator's sweep_summary.json, bench/sweep_top, and the tests all
 * read that one fold.
 *
 * Every record carries both clocks: "wall_us" (system clock, for
 * humans and cross-host sanity) and "mono_us" (steady clock relative
 * to the process's epoch record, immune to NTP steps). The merge step
 * estimates one offset per journal from its epoch record and then
 * *relaxes* it against causal constraints that cannot be violated no
 * matter how skewed the wall clocks are: a worker's epoch cannot
 * precede the coordinator's spawn mark for it, and a requeued claim
 * of a cell cannot precede the first claim of the same cell.
 * The result is one Chrome trace-event document with a process lane
 * per participant and a thread lane per journalling thread — a whole
 * multi-host sweep in one chrome://tracing (or Perfetto) load, and
 * the only timeline this project writes.
 *
 * A process that writes no results directory never opens its
 * journal, and then every emitter returns immediately without
 * allocating — enforced by the micro_simloop allocation gate.
 */

#ifndef DICE_COMMON_SWEEP_EVENTS_HPP
#define DICE_COMMON_SWEEP_EVENTS_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace dice
{

// ---------------------------------------------------------------------
// Phase-latency metrics.

/** The per-cell and lease-op latencies a sweep participant records. */
enum class SweepPhase : unsigned
{
    ClaimWait,    ///< Claim loop: queue poll until a cell was claimed.
    Generate,     ///< Trace acquisition (arena hit or generation).
    Simulate,     ///< System::run of a fresh cell.
    Export,       ///< Per-cell stats export (zero when disabled).
    Cell,         ///< Whole fresh cell (generate + simulate + export).
    LeaseAcquire, ///< createClaimFile syscall latency.
    LeaseRefresh, ///< refreshClaimFile syscall latency.
};

constexpr unsigned kSweepPhases = 7;

/** Stable stat/export name of @p p ("claim_wait_us", ...). */
const char *sweepPhaseName(SweepPhase p);

/**
 * Process-wide sweep metrics: one LogHistogram per SweepPhase.
 * Sampled unconditionally (a mutexed histogram bump per *cell*, not
 * per ref — invisible next to a simulation); they feed the per-cell
 * `sweep` stat group and perfbench's per-cell latency. Cumulative for
 * the process's lifetime; use snapshot() deltas (subtracted()) for a
 * window. sweep_summary.json does not read them: it folds the
 * journals, which carry the same microsecond values.
 */
class SweepMetrics
{
  public:
    static SweepMetrics &instance();

    /** Record one latency sample. Allocation-free. */
    void sample(SweepPhase p, std::uint64_t us);

    /** Copy under lock (safe against concurrent samplers). */
    LogHistogram snapshot(SweepPhase p) const;

    /**
     * The "sweep" StatGroup: every phase histogram as a
     * count/sum/mean/max/p50/p90/p99 + bucket-edge entry family
     * (StatGroup::addLogHistogram). Values frozen at call time.
     */
    StatGroup statGroup() const;

    void resetForTest();

  private:
    SweepMetrics() = default;

    mutable std::mutex mu_;
    std::array<LogHistogram, kSweepPhases> hists_;
};

// ---------------------------------------------------------------------
// Event journal.

/**
 * One participant's append-only event journal. A process-wide
 * singleton: disabled (and allocation-free on every emitter) until
 * open() is called, which only the bench harness does — and only in a
 * process that writes into a sweep results directory.
 *
 * Records are one JSON object per line, fflushed per record so a
 * SIGKILLed worker's journal is complete up to its last event.
 */
class SweepJournal
{
  public:
    static SweepJournal &instance();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Open (append) @p events_dir/<participant>.jsonl and write the
     * epoch record. False on I/O failure (the journal stays
     * disabled). @p participant must be a sanitized file stem.
     */
    bool open(const std::filesystem::path &events_dir,
              const std::string &participant);

    void close();

    const std::string &participant() const { return participant_; }

    /** Microseconds of steady clock from this process's epoch to
     *  @p t (0 for an instant before it). */
    std::uint64_t monoUs(std::chrono::steady_clock::time_point t) const;

    // Emitters. All return immediately, without allocating, when the
    // journal is disabled. Cell, key and detail strings are
    // JSON-escaped; phase, op and mark names are emitted verbatim
    // (callers pass literals).
    void mark(const char *name, const std::string &detail);
    /** @p requeued: acquired by breaking a dead holder's lease;
     *  @p wait_us: how long the claim loop was free; @p acquire_us:
     *  the lease-acquire syscall latency. */
    void claim(const std::string &cell, bool requeued,
               std::uint64_t wait_us, std::uint64_t acquire_us);
    void begin(const char *phase, const std::string &cell);
    void phase(const char *phase, const std::string &cell,
               std::uint64_t start_mono_us, std::uint64_t dur_us);
    void publish(const std::string &cell);
    void lease(const char *op, const std::string &cell,
               std::uint64_t dur_us);
    /** Trace-arena traffic on stream @p key of @p bytes bytes. */
    void arena(const char *op, const std::string &key,
               std::uint64_t bytes);
    /** End of batch @p batch (@p cells cells), worked by @p jobs
     *  claim loops for @p span_us. */
    void batch(unsigned long batch, std::size_t cells, unsigned jobs,
               std::uint64_t span_us);

  private:
    SweepJournal() = default;

    /** Append one record: the printf-formatted fields, then the
     *  calling thread's lane and both clocks. */
    void writeRecord(const char *format, ...)
        __attribute__((format(printf, 2, 3)));

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::FILE *file_ = nullptr;
    std::string participant_;
    std::chrono::steady_clock::time_point mono_epoch_{};
};

/**
 * RAII span of phase @p phase: a `begin` record on entry and a `phase`
 * record (start and duration on the journal's monotonic clock) on
 * exit, both on the calling thread's lane. Spans of one thread nest,
 * so the merged timeline draws them as a well-formed stack.
 *
 * The generate, simulate, export and cell phases are also sampled
 * into SweepMetrics, journal or not: perfbench and the per-cell
 * `sweep` stat group read those histograms. A span built without a
 * cell (System::run's warmup and measure) journals the cell of the
 * innermost enclosing span on its thread.
 *
 * With no journal open, a span of any other phase costs one
 * relaxed-atomic load and a four-name lookup; it reads no clock and
 * allocates nothing (micro_simloop --check).
 */
class JournalSpan
{
  public:
    /** @p phase (kept by pointer: pass a literal) and @p cell must
     *  outlive the span. */
    JournalSpan(const char *phase, const std::string &cell);
    JournalSpan(const char *phase, std::string &&cell) = delete;
    explicit JournalSpan(const char *phase);
    ~JournalSpan();

    JournalSpan(const JournalSpan &) = delete;
    JournalSpan &operator=(const JournalSpan &) = delete;

  private:
    JournalSpan(const char *phase, const std::string *cell);

    const char *phase_;
    bool journal_;                    ///< The journal was open on entry.
    std::optional<SweepPhase> metric_; ///< SweepMetrics phase, if any.
    const std::string *cell_ = nullptr;
    const std::string *outer_cell_ = nullptr; ///< Restored on exit.
    std::chrono::steady_clock::time_point t0_{};
};

// ---------------------------------------------------------------------
// Journal reading + timeline merge (coordinator / tools / tests).

/** One parsed journal record (unset fields keep their defaults). */
struct JournalEvent
{
    std::string ev;      ///< Record type ("epoch", "claim", ...).
    std::string cell;
    std::string phase;
    std::string op;
    std::string name;    ///< mark name.
    std::string detail;  ///< mark detail.
    std::string key;     ///< arena key.
    std::uint32_t tid = 0; ///< Writing thread's lane (0 when absent).
    std::uint64_t wall_us = 0;
    std::uint64_t mono_us = 0;
    std::uint64_t start_us = 0;
    std::uint64_t dur_us = 0;
    std::uint64_t wait_us = 0;
    std::uint64_t acquire_us = 0;
    std::uint64_t batch = 0;
    std::uint64_t cells = 0;
    std::uint64_t jobs = 0;
    std::uint64_t span_us = 0;
    std::uint64_t bytes = 0; ///< arena stream size.
    long pid = 0;
    bool requeued = false;
};

/** A fully-read participant journal: one process's records. */
struct ParticipantJournal
{
    std::string name; ///< File stem ("coordinator", "worker0", ...).
    std::string host; ///< From the epoch record.
    long pid = 0;     ///< From the epoch record.
    std::uint64_t epoch_mono_us = 0;
    /** Estimated wall-clock offset: aligned(e) = offset + e.mono_us.
     *  Seeded from the epoch record, then causally relaxed. */
    double offset_us = 0.0;
    std::vector<JournalEvent> events; ///< After the epoch, file order.
};

/**
 * Parse one journal line into @p out. False on anything that is not
 * a flat JSON object with the fields above (foreign garbage).
 */
bool parseJournalLine(const std::string &line, JournalEvent &out);

/**
 * Read a whole journal file. The first epoch record wins: records
 * before it and any later epoch record are skipped, as are
 * unparseable lines (a journal ends mid-line when its writer is
 * SIGKILLed between write and flush). False only when the file cannot
 * be read or contains no epoch record.
 */
bool readJournal(const std::filesystem::path &path,
                 ParticipantJournal &out, std::string *error = nullptr);

/**
 * Every readable journal (*.jsonl) directly under @p events_dir,
 * sorted by participant name. Empty when the directory is missing.
 */
std::vector<ParticipantJournal>
readJournals(const std::filesystem::path &events_dir);

// ---------------------------------------------------------------------
// The fold: one participant's record, rebuilt from its journal.

/**
 * Everything a status consumer reports about one participant (or,
 * via merge(), about several), folded from journal records alone.
 * Histograms are fed the records' microsecond values — claim wait
 * and lease-acquire from claims, generate/simulate/export/cell from
 * phase records, lease refresh from lease records — so they equal,
 * bucket for bucket, what one process sampling those values would
 * hold.
 */
struct ParticipantFold
{
    std::string name;
    std::uint64_t cells = 0;    ///< Publish records.
    std::uint64_t requeued = 0; ///< Claims with requeued=1.
    std::uint64_t busy_us = 0;  ///< Sum of whole-cell phase durations.
    /** busy_us inside closed batches (those ended by a batch record):
     *  the utilization numerator. A killed or still-running
     *  participant's open batch has no span yet. */
    std::uint64_t batch_busy_us = 0;
    std::uint64_t batches = 0;      ///< Batch records.
    std::uint64_t batch_cells = 0;  ///< Sum of their cell counts.
    std::uint64_t span_us = 0;      ///< Sum of their spans.
    std::uint64_t span_jobs_us = 0; ///< Sum of span x jobs.
    unsigned jobs = 0;              ///< Latest batch record's jobs.
    std::uint64_t generations = 0;  ///< Arena `generate` records.
    std::array<LogHistogram, kSweepPhases> phases;
    std::string slowest_cell; ///< Longest whole-cell phase record.
    std::uint64_t slowest_us = 0;
    /** The unfinished cell ("" when idle): the latest "begin cell"
     *  with no later publish or cell phase for it. A crashed worker
     *  keeps reporting its final cell. */
    std::string in_flight_cell;
    std::string in_flight_phase; ///< Deepest begun phase of that cell.
    std::uint64_t in_flight_since_wall_us = 0;

    /** busy / (span x jobs) over closed batches; 0 with none. */
    double utilization() const;

    /** Add @p other's counts and histograms; keep the slower slowest
     *  cell. Name, jobs, and in-flight state stay this record's. */
    void merge(const ParticipantFold &other);
};

/** Fold one participant's journal (file order). */
ParticipantFold foldJournal(const ParticipantJournal &journal);

/** foldJournal over readJournals(@p events_dir), in name order. */
std::vector<ParticipantFold>
foldSweepJournals(const std::filesystem::path &events_dir);

// ---------------------------------------------------------------------
// Timeline merge + anomaly detection.

/** What mergeSweepTimeline produced (for logging/tools). */
struct TimelineStats
{
    std::size_t participants = 0;
    std::size_t events = 0; ///< Trace events emitted.
};

/**
 * Merge every *.jsonl journal under @p events_dir into one Chrome
 * trace-event document at @p out_path: per-journal clock offsets from
 * the epoch records, causal constraint relaxation (worker epochs
 * after their spawn marks; requeued claims after the cell's first
 * claim), one process lane (pid) per participant and one thread
 * lane (tid) per journalling thread, "X" events for spans and
 * instant events for claims/requeues/publishes/lease ops/arena
 * traffic. Deterministic for a given set of journals.
 * False (with @p error) when the directory has no readable journals
 * or the output cannot be written.
 */
bool mergeSweepTimeline(const std::filesystem::path &events_dir,
                        const std::filesystem::path &out_path,
                        std::string *error = nullptr,
                        TimelineStats *stats = nullptr);

/**
 * The coordinator's anomaly screen over the merged (all participants)
 * record: flags straggler cells (slowest > k x p90 of the cell
 * distribution, with a minimum population so two-cell batches don't
 * self-flag) and requeue storms (a quarter or more of the cells came
 * back through dead-holder requeues — lease churn). Returns
 * human-readable warning strings, empty when healthy.
 */
std::vector<std::string>
sweepAnomalyWarnings(const LogHistogram &cell_us,
                     const std::string &slowest_cell,
                     std::uint64_t slowest_us, std::uint64_t requeued,
                     std::uint64_t cells, double k);

} // namespace dice

#endif // DICE_COMMON_SWEEP_EVENTS_HPP
