// A one-shard view of a Cluster's Engine. It exists only for the frozen
// benchmark driver (perfbench/driver/main.cc), which still reads the old
// sharded-engine accessors; the simulator runs every component on one
// Engine (DESIGN.md §6e). Always 1 shard, 1 worker and a lookahead of 0.

#ifndef SRC_SIM_SHARDED_ENGINE_H_
#define SRC_SIM_SHARDED_ENGINE_H_

#include <cstddef>
#include <cstdint>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace unifab {

class ShardedEngine {
 public:
  explicit ShardedEngine(Engine* engine) : engine_(engine) {}

  Engine& shard(std::size_t /*i*/) { return *engine_; }
  std::size_t num_shards() const { return 1; }
  std::uint32_t workers() const { return 1; }
  Tick lookahead() const { return 0; }
  std::uint64_t TotalFired() const { return engine_->TotalFired(); }
  Tick Now() const { return engine_->Now(); }

 private:
  Engine* engine_;
};

}  // namespace unifab

#endif  // SRC_SIM_SHARDED_ENGINE_H_
