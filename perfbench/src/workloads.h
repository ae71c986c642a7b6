// Entry points of the three workloads and the self-tests.
#ifndef QBENCH_WORKLOADS_H_
#define QBENCH_WORKLOADS_H_

#include "common.h"

namespace qbench {

int RunPairLarge(const Args& args);
int RunCorpusSearch(const Args& args);
int RunServedMix(const Args& args);

/// Open-loop honesty self-test: one served-mix step with the
/// `treematch.pair` delay failpoint armed for a single stall.
int RunHonestyCheck(const Args& args);

}  // namespace qbench

#endif  // QBENCH_WORKLOADS_H_
