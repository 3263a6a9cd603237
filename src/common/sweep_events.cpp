#include "sweep_events.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string_view>
#include <utility>

#include "common/claim_file.hpp"
#include "common/log.hpp"
#include "common/telemetry.hpp"

namespace dice
{

namespace
{

std::uint64_t
wallMicroseconds()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/** @p s as the body of a JSON string. */
std::string
escaped(const std::string &s)
{
    std::string out;
    appendJsonEscaped(out, s);
    return out;
}

/**
 * The calling thread's lane: a small index handed out in order of
 * each thread's first journal record, so a participant's lanes are
 * numbered 0, 1, 2, ... however the OS numbers its threads.
 */
std::uint32_t
journalLane()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t lane =
        next.fetch_add(1, std::memory_order_relaxed);
    return lane;
}

/** The span phases SweepMetrics samples and the fold histograms, by
 *  their journal phase name. */
constexpr std::pair<const char *, SweepPhase> kPhaseRecords[] = {
    {"generate", SweepPhase::Generate},
    {"simulate", SweepPhase::Simulate},
    {"export", SweepPhase::Export},
    {"cell", SweepPhase::Cell},
};

std::optional<SweepPhase>
metricPhase(std::string_view phase)
{
    for (const auto &[name, p] : kPhaseRecords) {
        if (phase == name)
            return p;
    }
    return std::nullopt;
}

/** The cell a span without one journals when no span encloses it. */
const std::string kNoCell;

/** The innermost open span's cell on this thread (journal open). */
thread_local const std::string *t_span_cell = nullptr;

} // namespace

// ---------------------------------------------------------------------
// SweepMetrics.

const char *
sweepPhaseName(SweepPhase p)
{
    switch (p) {
      case SweepPhase::ClaimWait:
        return "claim_wait_us";
      case SweepPhase::Generate:
        return "generate_us";
      case SweepPhase::Simulate:
        return "simulate_us";
      case SweepPhase::Export:
        return "export_us";
      case SweepPhase::Cell:
        return "cell_us";
      case SweepPhase::LeaseAcquire:
        return "lease_acquire_us";
      case SweepPhase::LeaseRefresh:
        return "lease_refresh_us";
    }
    return "unknown";
}

SweepMetrics &
SweepMetrics::instance()
{
    static SweepMetrics metrics;
    return metrics;
}

void
SweepMetrics::sample(SweepPhase p, std::uint64_t us)
{
    std::lock_guard lock(mu_);
    hists_[static_cast<unsigned>(p)].sample(us);
}

LogHistogram
SweepMetrics::snapshot(SweepPhase p) const
{
    std::lock_guard lock(mu_);
    return hists_[static_cast<unsigned>(p)];
}

StatGroup
SweepMetrics::statGroup() const
{
    std::array<LogHistogram, kSweepPhases> hists;
    {
        std::lock_guard lock(mu_);
        hists = hists_;
    }
    StatGroup g("sweep");
    for (unsigned i = 0; i < kSweepPhases; ++i) {
        g.addLogHistogram(sweepPhaseName(static_cast<SweepPhase>(i)),
                          hists[i]);
    }
    return g;
}

void
SweepMetrics::resetForTest()
{
    std::lock_guard lock(mu_);
    for (LogHistogram &h : hists_)
        h.reset();
}

// ---------------------------------------------------------------------
// SweepJournal.

SweepJournal &
SweepJournal::instance()
{
    static SweepJournal journal;
    return journal;
}

bool
SweepJournal::open(const std::filesystem::path &events_dir,
                   const std::string &participant)
{
    std::lock_guard lock(mu_);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
        enabled_.store(false, std::memory_order_relaxed);
    }
    std::error_code ec;
    std::filesystem::create_directories(events_dir, ec);
    const std::filesystem::path path =
        events_dir / (sanitizeFileStem(participant) + ".jsonl");
    file_ = std::fopen(path.string().c_str(), "a");
    if (file_ == nullptr) {
        dice_warn("sweep: cannot open event journal %s",
                  path.string().c_str());
        return false;
    }
    participant_ = sanitizeFileStem(participant);
    mono_epoch_ = std::chrono::steady_clock::now();

    std::string host;
    appendJsonEscaped(host, claimHost());
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"ev\":\"epoch\",\"participant\":\"%s\","
                  "\"pid\":%ld,\"host\":\"%s\",\"tid\":%" PRIu32
                  ",\"wall_us\":%" PRIu64 ",\"mono_us\":0}\n",
                  participant_.c_str(), claimPid(), host.c_str(),
                  journalLane(), wallMicroseconds());
    std::fputs(buf, file_);
    std::fflush(file_);
    enabled_.store(true, std::memory_order_relaxed);
    return true;
}

void
SweepJournal::close()
{
    std::lock_guard lock(mu_);
    enabled_.store(false, std::memory_order_relaxed);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

std::uint64_t
SweepJournal::monoUs(std::chrono::steady_clock::time_point t) const
{
    if (t <= mono_epoch_)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            t - mono_epoch_)
            .count());
}

void
SweepJournal::writeRecord(const char *format, ...)
{
    char fields[512];
    std::va_list args;
    va_start(args, format);
    std::vsnprintf(fields, sizeof fields, format, args);
    va_end(args);
    const std::uint64_t wall = wallMicroseconds();
    const std::uint64_t mono = monoUs(std::chrono::steady_clock::now());
    const std::uint32_t tid = journalLane();
    // One record per line, flushed immediately: a SIGKILLed worker's
    // journal is complete up to its final event, which is exactly
    // what the post-mortem timeline needs.
    std::lock_guard lock(mu_);
    if (file_ == nullptr)
        return;
    std::fprintf(file_,
                 "{%s,\"tid\":%" PRIu32 ",\"wall_us\":%" PRIu64
                 ",\"mono_us\":%" PRIu64 "}\n",
                 fields, tid, wall, mono);
    std::fflush(file_);
}

void
SweepJournal::mark(const char *name, const std::string &detail)
{
    if (enabled())
        writeRecord("\"ev\":\"mark\",\"name\":\"%s\",\"detail\":\"%s\"",
                    name, escaped(detail).c_str());
}

void
SweepJournal::claim(const std::string &cell, bool requeued,
                    std::uint64_t wait_us, std::uint64_t acquire_us)
{
    if (enabled())
        writeRecord("\"ev\":\"claim\",\"cell\":\"%s\",\"requeued\":%d,"
                    "\"wait_us\":%" PRIu64 ",\"acquire_us\":%" PRIu64,
                    escaped(cell).c_str(), requeued ? 1 : 0, wait_us,
                    acquire_us);
}

void
SweepJournal::begin(const char *phase, const std::string &cell)
{
    if (enabled())
        writeRecord("\"ev\":\"begin\",\"phase\":\"%s\",\"cell\":\"%s\"",
                    phase, escaped(cell).c_str());
}

void
SweepJournal::phase(const char *phase, const std::string &cell,
                    std::uint64_t start_mono_us, std::uint64_t dur_us)
{
    if (enabled())
        writeRecord("\"ev\":\"phase\",\"phase\":\"%s\",\"cell\":\"%s\","
                    "\"start_us\":%" PRIu64 ",\"dur_us\":%" PRIu64,
                    phase, escaped(cell).c_str(), start_mono_us, dur_us);
}

void
SweepJournal::publish(const std::string &cell)
{
    if (enabled())
        writeRecord("\"ev\":\"publish\",\"cell\":\"%s\"",
                    escaped(cell).c_str());
}

void
SweepJournal::lease(const char *op, const std::string &cell,
                    std::uint64_t dur_us)
{
    if (enabled())
        writeRecord("\"ev\":\"lease\",\"op\":\"%s\",\"cell\":\"%s\","
                    "\"dur_us\":%" PRIu64,
                    op, escaped(cell).c_str(), dur_us);
}

void
SweepJournal::arena(const char *op, const std::string &key,
                    std::uint64_t bytes)
{
    if (enabled())
        writeRecord("\"ev\":\"arena\",\"op\":\"%s\",\"key\":\"%s\","
                    "\"bytes\":%" PRIu64,
                    op, escaped(key).c_str(), bytes);
}

void
SweepJournal::batch(unsigned long batch, std::size_t cells,
                    unsigned jobs, std::uint64_t span_us)
{
    if (enabled())
        writeRecord("\"ev\":\"batch\",\"batch\":%lu,\"cells\":%zu,"
                    "\"jobs\":%u,\"span_us\":%" PRIu64,
                    batch, cells, jobs, span_us);
}

// ---------------------------------------------------------------------
// JournalSpan.

JournalSpan::JournalSpan(const char *phase, const std::string &cell)
    : JournalSpan(phase, &cell)
{
}

JournalSpan::JournalSpan(const char *phase) : JournalSpan(phase, nullptr)
{
}

JournalSpan::JournalSpan(const char *phase, const std::string *cell)
    : phase_(phase), journal_(SweepJournal::instance().enabled()),
      metric_(metricPhase(phase))
{
    if (!journal_ && !metric_)
        return;
    if (journal_) {
        outer_cell_ = t_span_cell;
        cell_ = cell != nullptr         ? cell
                : outer_cell_ != nullptr ? outer_cell_
                                         : &kNoCell;
        t_span_cell = cell_;
        SweepJournal::instance().begin(phase_, *cell_);
    }
    t0_ = std::chrono::steady_clock::now();
}

JournalSpan::~JournalSpan()
{
    if (!journal_ && !metric_)
        return;
    // Start and end both floor onto the journal's microsecond clock,
    // so a span that ends inside its parent is drawn inside it.
    SweepJournal &jr = SweepJournal::instance();
    const std::uint64_t start = jr.monoUs(t0_);
    const std::uint64_t dur =
        jr.monoUs(std::chrono::steady_clock::now()) - start;
    if (metric_)
        SweepMetrics::instance().sample(*metric_, dur);
    if (journal_) {
        jr.phase(phase_, *cell_, start, dur);
        t_span_cell = outer_cell_;
    }
}

// ---------------------------------------------------------------------
// Journal parsing.

namespace
{

/**
 * Scan one journal line as a flat JSON object of string / integer /
 * bool-ish values into @p fields. Only what SweepJournal emits (plus
 * the mini_json subset the tests hand-write) — not a general parser.
 */
bool
scanFlatObject(const std::string &line,
               std::vector<std::pair<std::string, std::string>> &fields)
{
    std::size_t i = 0;
    const auto skipWs = [&] {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t' || line[i] == '\r'))
            ++i;
    };
    skipWs();
    if (i >= line.size() || line[i] != '{')
        return false;
    ++i;
    for (;;) {
        skipWs();
        if (i < line.size() && line[i] == '}')
            return true;
        if (i >= line.size() || line[i] != '"')
            return false;
        ++i;
        std::string key;
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\')
                return false; // journal keys are never escaped
            key += line[i++];
        }
        if (i >= line.size())
            return false;
        ++i;
        skipWs();
        if (i >= line.size() || line[i] != ':')
            return false;
        ++i;
        skipWs();
        std::string value;
        if (i < line.size() && line[i] == '"') {
            ++i;
            while (i < line.size() && line[i] != '"') {
                if (line[i] == '\\' && i + 1 < line.size()) {
                    // Journal strings only ever escape via
                    // appendJsonEscaped; unescape the simple cases
                    // and keep \uXXXX verbatim (identity is all the
                    // merge needs).
                    const char c = line[i + 1];
                    if (c == '"' || c == '\\')
                        value += c;
                    else if (c == 'n')
                        value += '\n';
                    else if (c == 't')
                        value += '\t';
                    else if (c == 'r')
                        value += '\r';
                    else {
                        value += line[i];
                        value += c;
                    }
                    i += 2;
                    continue;
                }
                value += line[i++];
            }
            if (i >= line.size())
                return false;
            ++i;
        } else {
            while (i < line.size() && line[i] != ',' && line[i] != '}')
                value += line[i++];
            while (!value.empty() &&
                   (value.back() == ' ' || value.back() == '\t'))
                value.pop_back();
            if (value.empty())
                return false;
        }
        fields.emplace_back(std::move(key), std::move(value));
        skipWs();
        if (i < line.size() && line[i] == ',') {
            ++i;
            continue;
        }
        if (i < line.size() && line[i] == '}')
            return true;
        return false;
    }
}

std::uint64_t
toU64(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 10);
}

} // namespace

bool
parseJournalLine(const std::string &line, JournalEvent &out)
{
    std::vector<std::pair<std::string, std::string>> fields;
    if (!scanFlatObject(line, fields))
        return false;
    out = JournalEvent{};
    for (const auto &[key, value] : fields) {
        if (key == "ev")
            out.ev = value;
        else if (key == "cell")
            out.cell = value;
        else if (key == "phase")
            out.phase = value;
        else if (key == "op")
            out.op = value;
        else if (key == "name")
            out.name = value;
        else if (key == "detail")
            out.detail = value;
        else if (key == "key")
            out.key = value;
        else if (key == "participant")
            ; // redundant with the file stem
        else if (key == "host")
            out.name = out.ev == "epoch" ? value : out.name;
        else if (key == "wall_us")
            out.wall_us = toU64(value);
        else if (key == "mono_us")
            out.mono_us = toU64(value);
        else if (key == "start_us")
            out.start_us = toU64(value);
        else if (key == "dur_us")
            out.dur_us = toU64(value);
        else if (key == "wait_us")
            out.wait_us = toU64(value);
        else if (key == "acquire_us")
            out.acquire_us = toU64(value);
        else if (key == "batch")
            out.batch = toU64(value);
        else if (key == "cells")
            out.cells = toU64(value);
        else if (key == "jobs")
            out.jobs = toU64(value);
        else if (key == "span_us")
            out.span_us = toU64(value);
        else if (key == "bytes")
            out.bytes = toU64(value);
        else if (key == "tid")
            out.tid = static_cast<std::uint32_t>(toU64(value));
        else if (key == "pid")
            out.pid = std::strtol(value.c_str(), nullptr, 10);
        else if (key == "requeued")
            out.requeued = value == "1" || value == "true";
        // Unknown keys are ignored: a newer writer must not break an
        // older reader.
    }
    return !out.ev.empty();
}

bool
readJournal(const std::filesystem::path &path, ParticipantJournal &out,
            std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr)
            *error = "cannot read " + path.string();
        return false;
    }
    out = ParticipantJournal{};
    out.name = path.stem().string();
    bool epoch = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JournalEvent e;
        if (!parseJournalLine(line, e))
            continue; // torn final line of a killed writer
        if (e.ev == "epoch") {
            if (!epoch) {
                epoch = true;
                out.host = e.name; // parse stashes host in name
                out.pid = e.pid;
                out.epoch_mono_us = e.mono_us;
                out.offset_us = static_cast<double>(e.wall_us) -
                                static_cast<double>(e.mono_us);
            }
            continue;
        }
        if (epoch)
            out.events.push_back(std::move(e)); // else pre-epoch garbage
    }
    if (!epoch) {
        if (error != nullptr)
            *error = path.string() + " has no epoch record";
        return false;
    }
    return true;
}

std::vector<ParticipantJournal>
readJournals(const std::filesystem::path &events_dir)
{
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(events_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() == ".jsonl")
            files.push_back(it->path());
    }
    std::sort(files.begin(), files.end());
    std::vector<ParticipantJournal> journals;
    for (const std::filesystem::path &f : files) {
        ParticipantJournal p;
        if (readJournal(f, p))
            journals.push_back(std::move(p));
    }
    return journals;
}

// ---------------------------------------------------------------------
// The fold.

double
ParticipantFold::utilization() const
{
    return span_jobs_us > 0 ? static_cast<double>(batch_busy_us) /
                                  static_cast<double>(span_jobs_us)
                            : 0.0;
}

void
ParticipantFold::merge(const ParticipantFold &other)
{
    cells += other.cells;
    requeued += other.requeued;
    busy_us += other.busy_us;
    batch_busy_us += other.batch_busy_us;
    batches += other.batches;
    batch_cells += other.batch_cells;
    span_us += other.span_us;
    span_jobs_us += other.span_jobs_us;
    generations += other.generations;
    for (unsigned i = 0; i < kSweepPhases; ++i)
        phases[i].merge(other.phases[i]);
    if (other.slowest_us > slowest_us) {
        slowest_us = other.slowest_us;
        slowest_cell = other.slowest_cell;
    }
}

ParticipantFold
foldJournal(const ParticipantJournal &journal)
{
    ParticipantFold f;
    f.name = journal.name;
    const auto hist = [&f](SweepPhase p) -> LogHistogram & {
        return f.phases[static_cast<unsigned>(p)];
    };
    // Busy time since the last batch record: it joins the utilization
    // numerator only once a batch record closes it.
    std::uint64_t open_busy_us = 0;
    for (const JournalEvent &e : journal.events) {
        if (e.ev == "claim") {
            f.requeued += e.requeued ? 1 : 0;
            hist(SweepPhase::ClaimWait).sample(e.wait_us);
            hist(SweepPhase::LeaseAcquire).sample(e.acquire_us);
        } else if (e.ev == "publish") {
            ++f.cells;
        } else if (e.ev == "phase") {
            if (const std::optional<SweepPhase> p = metricPhase(e.phase))
                hist(*p).sample(e.dur_us);
            if (e.phase == "cell") {
                f.busy_us += e.dur_us;
                open_busy_us += e.dur_us;
                if (e.dur_us > f.slowest_us) {
                    f.slowest_us = e.dur_us;
                    f.slowest_cell = e.cell;
                }
            }
        } else if (e.ev == "lease" && e.op == "refresh") {
            hist(SweepPhase::LeaseRefresh).sample(e.dur_us);
        } else if (e.ev == "arena") {
            f.generations += e.op == "generate" ? 1 : 0;
        } else if (e.ev == "batch") {
            ++f.batches;
            f.batch_cells += e.cells;
            f.span_us += e.span_us;
            f.span_jobs_us += e.span_us * e.jobs;
            f.jobs = static_cast<unsigned>(e.jobs);
            f.batch_busy_us += open_busy_us;
            open_busy_us = 0;
        }

        // The in-flight cell: the latest begun one not yet closed.
        if (e.ev == "begin" && e.phase == "cell") {
            f.in_flight_cell = e.cell;
            f.in_flight_phase = "cell";
            f.in_flight_since_wall_us = e.wall_us;
        } else if (e.cell == f.in_flight_cell &&
                   !f.in_flight_cell.empty()) {
            if (e.ev == "begin") {
                f.in_flight_phase = e.phase;
            } else if (e.ev == "publish" ||
                       (e.ev == "phase" && e.phase == "cell")) {
                f.in_flight_cell.clear();
                f.in_flight_phase.clear();
                f.in_flight_since_wall_us = 0;
            }
        }
    }
    return f;
}

std::vector<ParticipantFold>
foldSweepJournals(const std::filesystem::path &events_dir)
{
    std::vector<ParticipantFold> folds;
    for (const ParticipantJournal &j : readJournals(events_dir))
        folds.push_back(foldJournal(j));
    return folds;
}

// ---------------------------------------------------------------------
// Timeline merge.

namespace
{

double
alignedUs(const ParticipantJournal &p, std::uint64_t mono)
{
    return p.offset_us + static_cast<double>(mono);
}

/**
 * Causal constraint relaxation. Epoch-record offsets are only as good
 * as each host's wall clock; two classes of events give hard
 * happens-before edges that survive any skew:
 *
 *  - spawn marks: a spawned worker's epoch cannot precede the
 *    coordinator's mark naming it;
 *  - requeued claims: a claim acquired by breaking a dead holder's
 *    lease cannot precede the cell's first (non-requeued) claim.
 *
 * Violations are repaired by pushing the *later* party's journal
 * offset forward (never backward: a forward-only shift cannot break a
 * previously-satisfied constraint of the same kind on that journal's
 * own earlier events). Bounded passes; the constraint graph is tiny.
 */
void
relaxOffsets(std::vector<ParticipantJournal> &journals)
{
    struct Constraint
    {
        // aligned(before) <= aligned(after)
        std::size_t before_j;
        std::uint64_t before_mono;
        std::size_t after_j;
        std::uint64_t after_mono;
    };
    std::vector<Constraint> constraints;

    std::map<std::string, std::size_t> by_name;
    for (std::size_t j = 0; j < journals.size(); ++j)
        by_name[journals[j].name] = j;

    // Spawn marks -> the epochs of the journals they name.
    for (std::size_t j = 0; j < journals.size(); ++j) {
        for (const JournalEvent &e : journals[j].events) {
            if (e.ev != "mark" || e.name != "spawn")
                continue;
            const auto it = by_name.find(e.detail);
            if (it != by_name.end())
                constraints.push_back({j, e.mono_us, it->second,
                                       journals[it->second].epoch_mono_us});
        }
    }

    // First non-requeued claim of each cell -> its requeued claims.
    struct ClaimRef
    {
        std::size_t j;
        std::uint64_t mono;
    };
    std::map<std::string, ClaimRef> first_claim;
    std::vector<std::pair<std::string, ClaimRef>> requeued_claims;
    for (std::size_t j = 0; j < journals.size(); ++j) {
        for (const JournalEvent &e : journals[j].events) {
            if (e.ev != "claim")
                continue;
            const ClaimRef ref{j, e.mono_us};
            if (e.requeued) {
                requeued_claims.emplace_back(e.cell, ref);
            } else if (first_claim.find(e.cell) == first_claim.end()) {
                first_claim.emplace(e.cell, ref);
            }
        }
    }
    for (const auto &[cell, r] : requeued_claims) {
        const auto it = first_claim.find(cell);
        if (it == first_claim.end())
            continue;
        const ClaimRef &f = it->second;
        constraints.push_back({f.j, f.mono, r.j, r.mono});
    }

    for (int pass = 0; pass < 16; ++pass) {
        bool changed = false;
        for (const Constraint &c : constraints) {
            const double before =
                alignedUs(journals[c.before_j], c.before_mono);
            const double after =
                alignedUs(journals[c.after_j], c.after_mono);
            if (after < before) {
                journals[c.after_j].offset_us += before - after;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
}

void
appendTraceEvent(std::string &out, bool &first, const char *name,
                 const char *cat, const char *ph, double ts,
                 std::size_t pid, std::uint32_t tid,
                 const std::string &args_json, std::uint64_t dur_us = 0)
{
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"";
    out += name;
    out += "\", \"cat\": \"";
    out += cat;
    out += "\", \"ph\": \"";
    out += ph;
    out += "\", \"ts\": ";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", std::max(0.0, ts));
    out += buf;
    if (std::strcmp(ph, "X") == 0) {
        out += ", \"dur\": ";
        out += std::to_string(dur_us);
    }
    if (std::strcmp(ph, "i") == 0)
        out += ", \"s\": \"t\"";
    out += ", \"pid\": ";
    out += std::to_string(pid);
    out += ", \"tid\": ";
    out += std::to_string(tid);
    if (!args_json.empty()) {
        out += ", \"args\": ";
        out += args_json;
    }
    out += "}";
}

std::string
cellArg(const std::string &cell)
{
    std::string args = "{\"cell\": \"";
    appendJsonEscaped(args, cell);
    args += "\"}";
    return args;
}

} // namespace

bool
mergeSweepTimeline(const std::filesystem::path &events_dir,
                   const std::filesystem::path &out_path,
                   std::string *error, TimelineStats *stats)
{
    std::vector<ParticipantJournal> journals = readJournals(events_dir);
    if (journals.empty()) {
        if (error != nullptr)
            *error = "no readable journals under " +
                     events_dir.string();
        return false;
    }

    relaxOffsets(journals);

    // Normalize: the earliest aligned instant (epochs included)
    // becomes t=0 of the merged timeline.
    double t0 = std::numeric_limits<double>::max();
    for (const ParticipantJournal &p : journals) {
        t0 = std::min(t0, alignedUs(p, p.epoch_mono_us));
        for (const JournalEvent &e : p.events) {
            t0 = std::min(t0, alignedUs(p, e.mono_us));
            if (e.ev == "phase")
                t0 = std::min(t0, alignedUs(p, e.start_us));
        }
    }

    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    std::size_t n_events = 0;
    for (std::size_t j = 0; j < journals.size(); ++j) {
        const ParticipantJournal &p = journals[j];
        // Lane metadata: chrome://tracing shows the participant name
        // instead of a bare pid index.
        std::string lane = "{\"name\": \"";
        appendJsonEscaped(lane, p.name +
                                    (p.host.empty() ? ""
                                                    : " (" + p.host + ")"));
        lane += "\"}";
        out += first ? "\n" : ",\n";
        first = false;
        out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
        out += std::to_string(j);
        out += ", \"tid\": 0, \"args\": ";
        out += lane;
        out += "}";

        for (const JournalEvent &e : p.events) {
            const double ts = alignedUs(p, e.mono_us) - t0;
            if (e.ev == "phase") {
                const double start = alignedUs(p, e.start_us) - t0;
                appendTraceEvent(out, first, e.phase.c_str(), "phase",
                                 "X", start, j, e.tid, cellArg(e.cell),
                                 e.dur_us);
            } else if (e.ev == "claim") {
                const char *name = e.requeued ? "requeue" : "claim";
                std::string args = "{\"cell\": \"";
                appendJsonEscaped(args, e.cell);
                args += "\", \"wait_us\": ";
                args += std::to_string(e.wait_us);
                args += "}";
                appendTraceEvent(out, first, name, "sweep", "i", ts, j,
                                 e.tid, args);
            } else if (e.ev == "publish") {
                appendTraceEvent(out, first, "publish", "sweep", "i",
                                 ts, j, e.tid, cellArg(e.cell));
            } else if (e.ev == "lease") {
                const std::string name = "lease_" + e.op;
                appendTraceEvent(out, first, name.c_str(), "lease",
                                 "i", ts, j, e.tid, cellArg(e.cell));
            } else if (e.ev == "arena") {
                std::string args = "{\"key\": \"";
                appendJsonEscaped(args, e.key);
                args += "\", \"bytes\": ";
                args += std::to_string(e.bytes);
                args += "}";
                appendTraceEvent(out, first, e.op.c_str(), "arena",
                                 "i", ts, j, e.tid, args);
            } else if (e.ev == "mark") {
                std::string args = "{\"detail\": \"";
                appendJsonEscaped(args, e.detail);
                args += "\"}";
                appendTraceEvent(out, first, e.name.c_str(), "sweep",
                                 "i", ts, j, e.tid, args);
            } else {
                continue; // begin/batch/unknown: status-fold only
            }
            ++n_events;
        }
    }
    out += "\n]}\n";

    if (!atomicWriteFile(out_path, out)) {
        if (error != nullptr)
            *error = "cannot write " + out_path.string();
        return false;
    }
    if (stats != nullptr) {
        stats->participants = journals.size();
        stats->events = n_events;
    }
    return true;
}

// ---------------------------------------------------------------------
// Anomaly detection.

std::vector<std::string>
sweepAnomalyWarnings(const LogHistogram &cell_us,
                     const std::string &slowest_cell,
                     std::uint64_t slowest_us, std::uint64_t requeued,
                     std::uint64_t cells, double k)
{
    std::vector<std::string> warnings;
    char buf[256];
    // Straggler: the slowest cell is far out on the sweep's own
    // latency distribution. Needs a minimum population — with 3 cells
    // the "p90" is just the max and everything self-flags.
    if (cell_us.count() >= 4 && slowest_us > 0) {
        const double p90 = cell_us.percentile(0.90);
        if (static_cast<double>(slowest_us) > k * p90) {
            std::snprintf(
                buf, sizeof buf,
                "straggler: cell %s took %.1f ms vs p90 %.1f ms "
                "(more than %.3gx p90)",
                slowest_cell.empty() ? "?" : slowest_cell.c_str(),
                static_cast<double>(slowest_us) / 1000.0,
                p90 / 1000.0, k);
            warnings.emplace_back(buf);
        }
    }
    // Requeue storm: dead-holder requeues are expected at crash
    // scale (a handful), not at batch scale — a quarter of the batch
    // coming back through broken leases means lease churn (workers
    // dying repeatedly, or a staleness threshold far below real cell
    // latency).
    if (cells > 0 && requeued >= 4 && requeued * 4 >= cells) {
        std::snprintf(buf, sizeof buf,
                      "lease churn: %llu of %llu cells were requeued "
                      "from dead or stale holders",
                      static_cast<unsigned long long>(requeued),
                      static_cast<unsigned long long>(cells));
        warnings.emplace_back(buf);
    }
    return warnings;
}

} // namespace dice
