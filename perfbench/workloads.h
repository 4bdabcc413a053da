// The three workloads of the serving benchmark; see README.md for why each
// exists and which layers it loads. Each returns its end-to-end metrics,
// or with RunOptions::trace its per-layer metrics from a traced pass.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

Outcome RunAdhocCold(const RunOptions& options);
Outcome RunServeChurn(const RunOptions& options);
Outcome RunRegexPar(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
