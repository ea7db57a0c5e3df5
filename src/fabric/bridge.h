// Inter-pod Ethernet bridge link (DESIGN.md §11).
//
// DFabric-style hierarchical scale-out joins CXL pods with an Ethernet
// trunk: microsecond-class propagation instead of nanoseconds, frame loss
// with go-back retransmit instead of near-lossless flit replay, and a
// window-based flow-control domain of its own (the bridge's rx window is
// not part of any pod's CXL credit pool). BridgeLink models that hop by
// mapping bridge vocabulary (frames, windows, retransmit) onto the audited
// Link flit pipeline, so everything built on links — routing, fault
// injection, conservation audits — works on bridges unchanged, while the
// bridge keeps its own accounting and audit scope under fabric/bridge/<name>.

#ifndef SRC_FABRIC_BRIDGE_H_
#define SRC_FABRIC_BRIDGE_H_

#include <cstdint>
#include <string>

#include "src/fabric/link.h"
#include "src/sim/time.h"

namespace unifab {

// Knobs of the Ethernet hop between two pod gateway switches. Deliberately
// a different vocabulary from LinkConfig; ToLinkConfig() is the mapping.
struct BridgeConfig {
  double ethernet_gbps = 100.0;    // trunk wire rate
  Tick propagation = FromUs(1.0);  // one-way latency (ToR hops + cabling)

  // Reliability: probability a frame is lost or corrupted in transit, and
  // the timeout after which the sender retransmits it.
  double frame_loss_rate = 1e-4;
  Tick retransmit_timeout = FromUs(5.0);

  // Flow control: the per-VC window of frames the far side will buffer,
  // and how long a window credit takes to travel back.
  std::uint32_t window_frames = 64;
  Tick ack_latency = FromUs(1.0);

  std::uint32_t tx_queue_depth = 256;  // per-VC staging queue at the sender
  std::uint32_t max_burst_frames = 16;

  // The equivalent link-layer configuration: 256B frames, byte rate =
  // ethernet_gbps / 8, loss -> flit_error_rate, retransmit -> replay,
  // window -> credits, ack latency -> credit return latency.
  LinkConfig ToLinkConfig() const;
};

// The Ethernet inter-pod hop. A Link in every structural respect (routing,
// endpoints, Fail/Recover, flit delivery) plus a bridge-scoped
// conservation audit: fabric/bridge/<name>/flits_conserved requires
// accepted == delivered + dropped + retransmit-pending + queued per
// direction at every sweep.
class BridgeLink : public Link {
 public:
  BridgeLink(Engine* engine, const BridgeConfig& config, std::uint64_t seed, std::string name);

  const BridgeConfig& bridge_config() const { return bridge_; }

 private:
  BridgeConfig bridge_;
  AuditScope bridge_audit_;
};

}  // namespace unifab

#endif  // SRC_FABRIC_BRIDGE_H_
