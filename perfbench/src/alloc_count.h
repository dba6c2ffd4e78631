// Process-wide count of global operator new calls (every heap allocation
// made through new, including the library's std containers). Counts are
// exact; read them as deltas around the operation of interest.
#pragma once

#include <cstdint>

namespace pb {

std::int64_t heap_allocs();

}  // namespace pb
