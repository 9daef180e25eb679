// Fixture: root of a wall-clock chain (the analyzer's purity roots live
// under src/sim) whose fact line carries an allow (see common/util.h).
#ifndef FIXTURE_SUPPRESSED_SIM_EXPERIMENT_H_
#define FIXTURE_SUPPRESSED_SIM_EXPERIMENT_H_

#include "common/util.h"

namespace planet {

inline void RunSuppressedExperiment() { StepOnce(); }

}  // namespace planet

#endif  // FIXTURE_SUPPRESSED_SIM_EXPERIMENT_H_
