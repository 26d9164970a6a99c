// Workload entry points.
#pragma once

#include "common.hpp"

namespace perfbench {

/// fleet_soa / fleet_mixed (args.workload selects the shape).
[[nodiscard]] Outcome run_fleet_workload(const Args& args);
/// serve_open.
[[nodiscard]] Outcome run_serve_workload(const Args& args);

}  // namespace perfbench
