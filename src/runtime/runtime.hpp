// Umbrella header for the concurrent runtime (see docs/CONCURRENCY.md).
#pragma once

#include "runtime/fleet_runner.hpp"  // IWYU pragma: export
#include "runtime/mpsc_channel.hpp"  // IWYU pragma: export
#include "runtime/spsc_ring.hpp"     // IWYU pragma: export
