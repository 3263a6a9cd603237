#include "log.hpp"

#include <mutex>

#include "common/knobs.hpp"

namespace dice
{

namespace
{

/**
 * Serializes every report line. Parallel bench workers warn
 * concurrently (e.g. decision-ring burst dumps); without the lock
 * their lines interleave mid-text on shared stderr.
 */
std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

void
vreport(const char *tag, const char *file, int line, const char *fmt,
        std::va_list ap)
{
    std::lock_guard lock(logMutex());
    std::fprintf(stderr, "%s: %s:%d: ", tag, file, line);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    std::fflush(stderr);
}

} // namespace

LogLevel
logLevel()
{
    return static_cast<LogLevel>(knobLevel(Knob::LogLevel));
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("panic", file, line, fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("fatal", file, line, fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warnImpl(const char *file, int line, const char *fmt, ...)
{
    if (logLevel() < LogLevel::Warn)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("warn", file, line, fmt, ap);
    va_end(ap);
}

void
debugImpl(const char *file, int line, const char *fmt, ...)
{
    if (logLevel() < LogLevel::Debug)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("debug", file, line, fmt, ap);
    va_end(ap);
}

void
assertFailImpl(const char *file, int line, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("panic", file, line, fmt, ap);
    va_end(ap);
}

} // namespace dice
