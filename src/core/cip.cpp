#include "cip.hpp"

#include <cstdio>

#include "common/bitops.hpp"
#include "common/knobs.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace dice
{

Cip::Cip(std::uint32_t ltt_entries)
    : ltt_(ltt_entries, 0), trace_enabled_(knobFlag(Knob::DecisionTrace))
{
    dice_assert(ltt_entries > 0, "CIP with empty LTT");
}

std::uint32_t
Cip::indexOf(LineAddr line) const
{
    const std::uint64_t page = pageOfLine(line);
    return static_cast<std::uint32_t>(mix64(page) % ltt_.size());
}

IndexScheme
Cip::predictRead(LineAddr line) const
{
    return ltt_[indexOf(line)] ? IndexScheme::BAI : IndexScheme::TSI;
}

void
Cip::updateRead(LineAddr line, IndexScheme actual)
{
    const IndexScheme predicted = predictRead(line);
    ++read_predictions_;
    if (predicted != actual)
        ++read_mispredicts_;
    ltt_[indexOf(line)] = actual == IndexScheme::BAI ? 1 : 0;
    if (trace_enabled_)
        traceRead(line, predicted, actual);
}

void
Cip::traceRead(LineAddr line, IndexScheme predicted, IndexScheme actual)
{
    read_ring_.push(CipReadTrace{line, predicted, actual});
    burst_window_ = (burst_window_ << 1) |
                    (predicted != actual ? 1u : 0u);

    // Dump when mispredictions dominate the last kBurstWindowBits
    // scored reads, at most once per full window (otherwise a long
    // pathological phase would dump on every access).
    if (read_predictions_ - last_dump_at_ < kBurstWindowBits)
        return;
    if (popcount64(burst_window_) < kBurstThreshold)
        return;
    last_dump_at_ = read_predictions_;
    ++burst_dumps_;
    dice_warn("cip: misprediction burst (%u of last %u reads); ring:\n%s",
              popcount64(burst_window_), kBurstWindowBits,
              dumpReadRing().c_str());
}

void
Cip::enableDecisionTrace(bool enabled)
{
    trace_enabled_ = enabled;
    if (!enabled) {
        read_ring_.clear();
        burst_window_ = 0;
        last_dump_at_ = 0;
    }
}

std::string
Cip::dumpReadRing() const
{
    std::string out;
    char buf[96];
    read_ring_.forEach([&out, &buf](const CipReadTrace &t) {
        std::snprintf(buf, sizeof buf,
                      "  line %#llx predicted %s actual %s%s\n",
                      static_cast<unsigned long long>(t.line),
                      indexSchemeName(t.predicted),
                      indexSchemeName(t.actual),
                      t.predicted != t.actual ? "  <-- miss" : "");
        out += buf;
    });
    return out;
}

void
Cip::train(LineAddr line, IndexScheme actual)
{
    ltt_[indexOf(line)] = actual == IndexScheme::BAI ? 1 : 0;
}

IndexScheme
Cip::predictWrite(std::uint32_t size_bytes,
                  std::uint32_t threshold_bytes) const
{
    return size_bytes <= threshold_bytes ? IndexScheme::BAI
                                         : IndexScheme::TSI;
}

void
Cip::scoreWrite(IndexScheme predicted, IndexScheme actual)
{
    ++write_predictions_;
    if (predicted != actual)
        ++write_mispredicts_;
}

void
Cip::resetStats()
{
    read_predictions_ = read_mispredicts_ = 0;
    write_predictions_ = write_mispredicts_ = 0;
}

std::uint32_t
Cip::storageBytes() const
{
    return static_cast<std::uint32_t>((ltt_.size() + 7) / 8);
}

double
Cip::readAccuracy() const
{
    if (read_predictions_ == 0)
        return 1.0;
    return 1.0 - static_cast<double>(read_mispredicts_) /
                     static_cast<double>(read_predictions_);
}

double
Cip::writeAccuracy() const
{
    if (write_predictions_ == 0)
        return 1.0;
    return 1.0 - static_cast<double>(write_mispredicts_) /
                     static_cast<double>(write_predictions_);
}

StatGroup
Cip::stats() const
{
    StatGroup g("cip");
    g.addFormula("read_predictions",
                 [this]() { return double(read_predictions_); });
    g.addFormula("read_accuracy", [this]() { return readAccuracy(); });
    g.addFormula("write_predictions",
                 [this]() { return double(write_predictions_); });
    g.addFormula("write_accuracy", [this]() { return writeAccuracy(); });
    g.addFormula("storage_bytes",
                 [this]() { return double(storageBytes()); });
    return g;
}

} // namespace dice
