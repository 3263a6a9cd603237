#include "memory.hpp"

namespace dice
{

MainMemory::MainMemory(const DramTiming &timing)
    : device_("mem", timing), mapper_(timing, kLineSize),
      versions_(/*expected_keys=*/1 << 16)
{
}

DramResult
MainMemory::read(LineAddr line, Cycle now)
{
    return device_.access(mapper_.coord(line), kLineSize, now, false);
}

void
MainMemory::fetch(LineAddr line, Cycle now)
{
    device_.access(mapper_.coord(line), kLineSize, now,
                   AccessKind::PostedRead);
}

void
MainMemory::write(LineAddr line, std::uint64_t version, Cycle now)
{
    device_.access(mapper_.coord(line), kLineSize, now, true);
    versions_[line] = version;
}

std::uint64_t
MainMemory::versionOf(LineAddr line) const
{
    return versions_.valueOr(line, 0);
}

} // namespace dice
