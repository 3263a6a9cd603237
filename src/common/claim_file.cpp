#include "claim_file.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

namespace dice
{

long
claimPid()
{
    return static_cast<long>(getpid());
}

const std::string &
claimHost()
{
    static const std::string host = [] {
        char buf[256] = {0};
        if (gethostname(buf, sizeof buf - 1) != 0)
            return std::string("unknown");
        return std::string(buf);
    }();
    return host;
}

bool
claimPidAlive(long pid)
{
    return kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

bool
parseClaimBody(const std::string &content, long &pid, std::string &host)
{
    const std::size_t host_at = content.find(" host ");
    if (content.rfind("pid ", 0) != 0 || host_at == std::string::npos)
        return false;
    pid = std::strtol(content.c_str() + 4, nullptr, 10);
    host = content.substr(host_at + 6);
    while (!host.empty() && (host.back() == '\n' || host.back() == '\r'))
        host.pop_back();
    return pid > 0 && !host.empty();
}

std::uint64_t
fileAgeSeconds(const std::filesystem::path &path)
{
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(path, ec);
    if (ec)
        return 0;
    const auto now = std::filesystem::file_time_type::clock::now();
    const auto age =
        std::chrono::duration_cast<std::chrono::seconds>(now - mtime);
    return age.count() > 0 ? static_cast<std::uint64_t>(age.count()) : 0;
}

namespace
{

std::string
claimBody()
{
    return "pid " + std::to_string(claimPid()) + " host " + claimHost() +
           "\n";
}

} // namespace

ClaimAttempt
createClaimFile(const std::filesystem::path &path)
{
    const int fd =
        ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
        const std::string body = claimBody();
        // A short or failed write still leaves a valid claim file; its
        // content only feeds liveness heuristics.
        (void)!::write(fd, body.data(), body.size());
        ::close(fd);
        return ClaimAttempt::Acquired;
    }
    return errno == EEXIST ? ClaimAttempt::Busy : ClaimAttempt::Error;
}

bool
claimFileLive(const std::filesystem::path &path,
              std::uint64_t stale_seconds)
{
    std::ifstream in(path);
    if (!in)
        return false; // no claim file: holder finished or died cleanly
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());

    long pid = 0;
    std::string host;
    if (parseClaimBody(content, pid, host)) {
        if (host == claimHost() && !claimPidAlive(pid))
            return false;
    }
    // Shared-filesystem fallback: a claim from another host (or an
    // unparseable one) is presumed live until it outlives the stale
    // threshold; holders refresh their claims to stay under it.
    return fileAgeSeconds(path) < stale_seconds;
}

bool
refreshClaimFile(const std::filesystem::path &path)
{
    // A refresh extends the claim's freshness; it must preserve the
    // original body (never re-stamp ownership) and must not resurrect
    // a claim that was already released — so a vanished file is a
    // no-op, not a rewrite.
    std::ifstream in(path);
    if (!in)
        return false;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    if (content.empty())
        return false;
    // Atomic replace, not in-place truncation: a concurrent reader of
    // the claim must never observe an empty body (which would parse as
    // garbage and start the mtime-staleness clock on a live holder).
    return atomicWriteFile(path, content);
}

bool
atomicWriteFile(const std::filesystem::path &path,
                const std::string &content)
{
    static std::atomic<std::uint64_t> counter{0};
    std::filesystem::path tmp = path;
    tmp += ".tmp." + std::to_string(claimPid()) + "." +
           std::to_string(counter.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out)
            return false;
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        if (!out)
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace dice
