// Umbrella header: everything a typical R-Opus consumer needs.
//
//   #include "ropus.h"
//
// Layers (see DESIGN.md for the inventory):
//   trace/      demand traces, calendars, statistics, forecasting, CSV I/O
//   workload/   synthetic workload generation (case-study fleet)
//   stress/     burst-factor calibration from responsiveness targets
//   qos/        QoS requirements, CoS commitments, QoS translation
//   sim/        per-server capacity simulation and required capacity
//   placement/  consolidation search (genetic + greedy baselines)
//   failover/   single- and multi-failure planning
//   core/       the Pool facade and the long-term capacity planner
#pragma once

#include "common/error.h"    // IWYU pragma: export
#include "common/logging.h"  // IWYU pragma: export
#include "common/stats.h"    // IWYU pragma: export

#include "trace/attribute.h"     // IWYU pragma: export
#include "trace/calendar.h"      // IWYU pragma: export
#include "trace/demand_trace.h"  // IWYU pragma: export
#include "trace/correlation.h"   // IWYU pragma: export
#include "trace/forecast.h"      // IWYU pragma: export
#include "trace/trace_io.h"      // IWYU pragma: export
#include "trace/trace_stats.h"   // IWYU pragma: export

#include "workload/fleet.h"      // IWYU pragma: export
#include "workload/generator.h"  // IWYU pragma: export
#include "workload/whatif.h"     // IWYU pragma: export
#include "workload/presets.h"    // IWYU pragma: export
#include "workload/profile.h"    // IWYU pragma: export

#include "stress/calibration.h"  // IWYU pragma: export
#include "stress/queue_sim.h"    // IWYU pragma: export

#include "qos/allocation.h"            // IWYU pragma: export
#include "qos/requirements.h"          // IWYU pragma: export
#include "qos/translation.h"           // IWYU pragma: export
#include "qos/workload_allocations.h"  // IWYU pragma: export

#include "sim/server.h"     // IWYU pragma: export
#include "sim/simulator.h"  // IWYU pragma: export

#include "placement/baselines.h"      // IWYU pragma: export
#include "placement/consolidator.h"   // IWYU pragma: export
#include "placement/exact.h"          // IWYU pragma: export
#include "placement/genetic.h"        // IWYU pragma: export
#include "placement/problem.h"        // IWYU pragma: export

#include "failover/economics.h"  // IWYU pragma: export
#include "failover/planner.h"    // IWYU pragma: export

#include "wlm/compliance.h"     // IWYU pragma: export
#include "wlm/failure_drill.h"  // IWYU pragma: export
#include "wlm/controller.h"  // IWYU pragma: export

#include "core/backtest.h"          // IWYU pragma: export
#include "core/capacity_planner.h"  // IWYU pragma: export
#include "core/plan_export.h"       // IWYU pragma: export
#include "core/repair_loop.h"       // IWYU pragma: export
#include "core/pool.h"              // IWYU pragma: export
