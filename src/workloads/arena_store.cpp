#include "arena_store.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/claim_file.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"

namespace dice
{

namespace
{

constexpr char kMagic[8] = {'D', 'I', 'C', 'E', 'A', 'R', 'N', 'A'};
constexpr std::size_t kHeaderBytes = 32;

/** Claim age beyond which its holder is presumed dead. Generation
 *  takes seconds, so ten minutes is long past any live holder. */
constexpr std::uint64_t kStaleClaimSeconds = 600;

void
putU32(std::string &out, std::uint32_t v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

void
putU64(std::string &out, std::uint64_t v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

} // namespace

ArenaStore::ArenaStore(std::filesystem::path dir) : dir_(std::move(dir))
{
}

std::string
ArenaStore::fileStem(const ArenaStoreKey &key)
{
    std::string id = key.workload;
    id += '|';
    id += std::to_string(key.seed);
    id += '|';
    id += std::to_string(key.num_cores);
    id += '|';
    id += std::to_string(key.reference_capacity);
    id += '|';
    id += std::to_string(key.refs_per_core);
    id += '|';
    id += std::to_string(kFormatVersion);
    return sanitizeFileStem(key.workload) + "." +
           std::to_string(mix64(fnv1a(id)));
}

std::filesystem::path
ArenaStore::resultPath(const ArenaStoreKey &key) const
{
    return dir_ / (fileStem(key) + ".trace");
}

std::filesystem::path
ArenaStore::claimPath(const ArenaStoreKey &key) const
{
    return dir_ / (fileStem(key) + ".claim");
}

void
ArenaStore::serialize(const TraceSet &set, std::string &out)
{
    std::string payload;
    for (const PackedTrace &t : set.streams)
        t.serializeTo(payload);

    out.clear();
    out.reserve(kHeaderBytes + payload.size());
    out.append(kMagic, sizeof kMagic);
    putU32(out, kFormatVersion);
    putU32(out, static_cast<std::uint32_t>(set.streams.size()));
    putU64(out, payload.size());
    putU64(out, fnv1a(payload));
    out += payload;
}

bool
ArenaStore::deserialize(const char *data, std::size_t size,
                        TraceSet &out)
{
    if (size < kHeaderBytes ||
        std::memcmp(data, kMagic, sizeof kMagic) != 0)
        return false;
    std::uint32_t version = 0, streams = 0;
    std::uint64_t payload_size = 0, checksum = 0;
    std::memcpy(&version, data + 8, sizeof version);
    std::memcpy(&streams, data + 12, sizeof streams);
    std::memcpy(&payload_size, data + 16, sizeof payload_size);
    std::memcpy(&checksum, data + 24, sizeof checksum);
    if (version != kFormatVersion)
        return false;
    if (payload_size != size - kHeaderBytes)
        return false;
    const char *payload = data + kHeaderBytes;
    if (fnv1a({payload, payload_size}) != checksum)
        return false;

    out.streams.clear();
    out.streams.resize(streams);
    std::size_t offset = 0;
    for (PackedTrace &t : out.streams) {
        if (!t.deserializeFrom(payload, payload_size, offset))
            return false;
    }
    return offset == payload_size;
}

bool
ArenaStore::load(const ArenaStoreKey &key,
                 std::shared_ptr<const TraceSet> &out) const
{
    std::ifstream in(resultPath(key), std::ios::binary);
    if (!in)
        return false;
    // One sized read, not an istreambuf_iterator slurp: spill files
    // are tens of MB and the per-char path costs more than the
    // deserialization itself.
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < 0)
        return false;
    in.seekg(0);
    std::string content(static_cast<std::size_t>(size), '\0');
    in.read(content.data(), size);
    if (!in)
        return false;

    auto set = std::make_shared<TraceSet>();
    if (!deserialize(content.data(), content.size(), *set))
        return false;
    out = std::move(set);
    return true;
}

bool
ArenaStore::save(const ArenaStoreKey &key, const TraceSet &set) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);

    std::string content;
    serialize(set, content);

    // Unique temp name + atomic rename: concurrent writers never
    // collide and readers never see a torn file (same protocol as the
    // bench result cache).
    static std::atomic<std::uint64_t> counter{0};
    const std::filesystem::path path = resultPath(key);
    std::filesystem::path tmp = path;
    tmp += ".tmp." + std::to_string(claimPid()) + "." +
           std::to_string(counter.fetch_add(1));
    {
        std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
        if (!outf)
            return false;
        outf.write(content.data(),
                   static_cast<std::streamsize>(content.size()));
        if (!outf)
            return false;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

void
ArenaStore::Claim::release()
{
    if (path_.empty())
        return;
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    path_.clear();
}

bool
ArenaStore::tryClaim(const ArenaStoreKey &key, Claim &claim) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    const std::filesystem::path path = claimPath(key);

    for (int attempt = 0; attempt < 2; ++attempt) {
        switch (createClaimFile(path)) {
          case ClaimAttempt::Acquired:
            claim.path_ = path;
            return true;
          case ClaimAttempt::Error:
            // Unclaimable dir (read-only, or a platform without
            // O_EXCL): just generate a private copy.
            return true;
          case ClaimAttempt::Busy:
            break;
        }
        if (claimHolderAlive(key))
            return false;
        dice_warn("arena: breaking stale claim %s",
                  path.string().c_str());
        std::filesystem::remove(path, ec);
        // Retake via O_EXCL so racing breakers cannot both win.
    }
    return false;
}

bool
ArenaStore::claimHolderAlive(const ArenaStoreKey &key) const
{
    return claimFileLive(claimPath(key), kStaleClaimSeconds);
}

} // namespace dice
