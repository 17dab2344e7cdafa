#include "core/reduction_context.h"

#include "common/status.h"
#include "core/parallel.h"

namespace fairbc {

ReductionContext::ReductionContext() : scratch_(1) {}

ReductionContext::ReductionContext(unsigned num_threads) {
  if (num_threads > 1) {
    pool_ = &CallerPool();
    num_lanes_ = ResolveNumThreads(num_threads);
  }
  scratch_.resize(num_lanes_);
}

ReductionContext::~ReductionContext() = default;

void ReductionContext::ParallelFor(
    std::uint64_t num_tasks,
    const std::function<void(std::uint64_t, unsigned)>& fn) const {
  FAIRBC_CHECK(pool_ != nullptr);
  pool_->ParallelFor(num_lanes_, num_tasks, fn);
}

std::vector<std::uint32_t>& ReductionContext::CountScratch(unsigned lane,
                                                           std::size_t size) {
  FAIRBC_CHECK(lane < scratch_.size());
  auto& counts = scratch_[lane].counts;
  if (counts.size() < size) counts.assign(size, 0);
  return counts;
}

std::vector<char>& ReductionContext::FlagScratch(unsigned lane,
                                                 std::size_t size) {
  FAIRBC_CHECK(lane < scratch_.size());
  auto& flags = scratch_[lane].flags;
  if (flags.size() < size) flags.assign(size, 0);
  return flags;
}

}  // namespace fairbc
