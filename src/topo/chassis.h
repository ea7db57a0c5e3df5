// FAM and FAA chassis (paper Figure 1b, right): standalone boxes enclosing
// a controller, an FEA, and either rDIMM modules (FAM) or accelerators plus
// scratch rDIMMs (FAA).

#ifndef SRC_TOPO_CHASSIS_H_
#define SRC_TOPO_CHASSIS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/mem/dram.h"
#include "src/mem/expander.h"
#include "src/topo/accelerator.h"

namespace unifab {

struct FamChassisConfig {
  DramConfig rdimm;
  AdapterConfig fea;
  Tick device_serialization_latency = FromNs(20.0);
};

// Fabric-attached memory chassis: rDIMMs behind a MemoryExpander (CXL Type 3
// semantics, CPU-less NUMA node).
class FamChassis {
 public:
  FamChassis(Engine* engine, FabricInterconnect* fabric, const FamChassisConfig& config,
             const std::string& name, std::uint16_t domain = 0);

  FamChassis(const FamChassis&) = delete;
  FamChassis& operator=(const FamChassis&) = delete;

  EndpointAdapter* fea() { return fea_; }
  MemoryExpander* expander() { return expander_.get(); }
  DramDevice* dram() { return dram_.get(); }
  MessageDispatcher* dispatcher() { return dispatcher_.get(); }
  // The engine this chassis's components run on; protocol agents homed
  // here schedule their events on it.
  Engine* engine() { return engine_; }
  PbrId id() const { return fea_->id(); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  Engine* engine_;
  std::unique_ptr<DramDevice> dram_;
  std::unique_ptr<MemoryExpander> expander_;
  EndpointAdapter* fea_;  // owned by the interconnect
  std::unique_ptr<MessageDispatcher> dispatcher_;
};

struct FaaChassisConfig {
  AcceleratorConfig accelerator;
  DramConfig scratch;
  AdapterConfig fea;
};

// Fabric-attached accelerator chassis: execution engines plus scratch
// memory; runtime messages (scalable-function invocations, idempotent task
// dispatch) arrive through the FEA dispatcher.
class FaaChassis {
 public:
  FaaChassis(Engine* engine, FabricInterconnect* fabric, const FaaChassisConfig& config,
             const std::string& name, std::uint16_t domain = 0);

  FaaChassis(const FaaChassis&) = delete;
  FaaChassis& operator=(const FaaChassis&) = delete;

  // Fails/recovers the whole chassis power domain (accelerator + adapters).
  void Fail() { accelerator_->Fail(); }
  void Recover() { accelerator_->Recover(); }
  bool failed() const { return accelerator_->failed(); }

  Accelerator* accelerator() { return accelerator_.get(); }
  EndpointAdapter* fea() { return fea_; }
  DramDevice* scratch() { return scratch_.get(); }
  MessageDispatcher* dispatcher() { return dispatcher_.get(); }
  PbrId id() const { return fea_->id(); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::unique_ptr<Accelerator> accelerator_;
  std::unique_ptr<DramDevice> scratch_;
  EndpointAdapter* fea_;  // owned by the interconnect
  std::unique_ptr<MessageDispatcher> dispatcher_;
};

}  // namespace unifab

#endif  // SRC_TOPO_CHASSIS_H_
