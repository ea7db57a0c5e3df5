// Physical + link layer of the simulated memory fabric.
//
// A Link is a full-duplex point-to-point connection between two fabric
// components. Each direction implements:
//   * physical layer: per-flit serialization time derived from lane count and
//     transfer rate, plus fixed propagation delay (paper §2.1 Flex Bus);
//   * link layer: per-virtual-channel credit-based flow control with a
//     credit update protocol and optional credit overcommitment, and an
//     ack/replay reliability scheme driven by an injectable flit error rate.
//
// Credits model receiver buffer slots: the sender spends one credit per flit
// and the receiver returns it (after `credit_return_latency`) once the flit
// leaves its input buffer. This is the mechanism whose pathologies §3
// (Difference #3) dissects and the central arbiter (DP#4) manages.

#ifndef SRC_FABRIC_LINK_H_
#define SRC_FABRIC_LINK_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fabric/flit.h"
#include "src/sim/audit.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace unifab {

// Anything that can sit at the end of a link.
class FlitReceiver {
 public:
  virtual ~FlitReceiver() = default;

  // Delivers a flit arriving on the receiver's local port `port`. The
  // receiver owns an input-buffer slot for the flit and must call
  // LinkEndpoint::ReturnCredit on that port's endpoint once the slot frees.
  virtual void ReceiveFlit(const Flit& flit, int port) = 0;

  // Invoked when the link attached at `port` changes epoch: `link_up` false
  // on Fail() (everything in flight died), true on Recover(). Adapters use
  // the down transition to fail outstanding MSHR transactions whose
  // responses died with the old epoch instead of waiting forever.
  virtual void OnLinkEpochChange(int port, bool link_up) {
    (void)port;
    (void)link_up;
  }
};

struct LinkConfig {
  // Physical layer. Effective byte rate = transfer rate * lanes / 8, e.g.
  // 32 GT/s x16 ~ 64 GB/s (encoding overhead folded into the rate).
  double gigatransfers_per_sec = 32.0;
  int lanes = 16;  // bifurcation: x4 / x8 / x16
  FlitMode flit_mode = FlitMode::k68B;
  Tick propagation = FromNs(10.0);

  // Link layer.
  std::uint32_t credits_per_vc = 8;      // receiver buffer slots per VC
  double credit_overcommit = 1.0;        // advertised = slots * overcommit
  Tick credit_return_latency = FromNs(10.0);
  std::uint32_t tx_queue_depth = 64;     // per-VC staging queue at the sender

  // Reliability: probability that a transmitted flit is corrupted and must
  // be replayed after `replay_timeout`.
  double flit_error_rate = 0.0;
  Tick replay_timeout = FromNs(100.0);

  // Strict priority for the dedicated control VC (FCC DP#4). When false the
  // control channel arbitrates round-robin with data channels.
  bool control_priority = true;

  // Batch service: one sender wakeup commits up to this many back-to-back
  // flits onto the wire as a train (one wire-free event per train instead of
  // per flit). Each flit still serializes, propagates, and consumes credit
  // at exactly the tick it would have with per-flit service, so simulated
  // timing is unchanged — only the event count drops. 1 = per-flit service.
  std::uint32_t max_burst_flits = 8;

  // Payload bytes per second across the wire.
  double BytesPerSec() const { return gigatransfers_per_sec * 1e9 * lanes / 8.0; }

  // Time to put one flit of this mode on the wire.
  Tick SerializeTime() const {
    return SerializationDelay(FlitWireBytes(flit_mode), BytesPerSec() / 1e9);
  }
};

struct LinkStats {
  std::uint64_t flits_accepted = 0;   // unique flits accepted by Send()
  std::uint64_t flits_sent = 0;       // wire transmissions (counts replays)
  std::uint64_t flits_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t replays = 0;
  std::uint64_t dropped_on_fail = 0;  // queued + in-flight flits lost to Fail()
  std::uint64_t credit_stalls = 0;    // times a send had to wait for credits
  Tick busy_time = 0;                 // wire occupancy

  // At quiescence with empty tx queues the accounting closes:
  //   flits_accepted == flits_delivered + dropped_on_fail.

  // Registers live-value instruments (named `prefix` + field) reading this
  // struct; the group must not outlive it.
  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

class Link;

// The sending/receiving interface one component holds for one of its ports.
class LinkEndpoint {
 public:
  LinkEndpoint(Link* link, int side) : link_(link), side_(side) {}

  // Enqueues a flit for transmission. Returns false when the per-VC staging
  // queue is full (caller must retry when DrainCallback fires).
  bool Send(const Flit& flit);

  // True if Send would accept a flit on this channel.
  bool CanSend(Channel channel) const;

  // Returns one input-buffer credit for `channel` to the remote sender.
  void ReturnCredit(Channel channel);

  // Attaches the component receiving flits from this endpoint, with the
  // port index it wants reported.
  void Bind(FlitReceiver* receiver, int port);

  // Invoked whenever tx-queue space or credits free up, so the component can
  // push more flits.
  void SetDrainCallback(std::function<void()> cb);

  // Credits currently available to *send* on this endpoint's direction.
  std::uint32_t CreditsAvailable(Channel channel) const;

  std::size_t QueueDepth(Channel channel) const;

  const LinkStats& stats() const;
  const LinkConfig& config() const;

  int side() const { return side_; }
  FlitReceiver* receiver() const;
  int port() const;

 private:
  friend class Link;
  Link* link_;
  int side_;  // 0 or 1
};

// A full-duplex link. Construct via Link::Create and wire both endpoints.
class Link {
 public:
  Link(Engine* engine, const LinkConfig& config, std::uint64_t seed, std::string name);
  virtual ~Link() = default;

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  LinkEndpoint& end(int side) { return endpoints_[side]; }
  const LinkConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

  // Failure injection: a failed link refuses new sends and silently drops
  // everything in flight (flits, pending credit returns) — the passive
  // failure behavior of §3 Difference #5 applied to the interconnect.
  // Recover() restores the wire with fresh credits; upper layers must
  // re-drive (or re-route around) whatever was lost.
  void Fail();
  void Recover();
  bool failed() const { return failed_; }

  const LinkStats& stats(int sender_side) const { return dirs_[sender_side].stats; }

  // Per-direction accounting snapshot for derived links and tests. At any
  // event boundary accepted == delivered + dropped_on_fail + in_flight +
  // queued — the invariant the flit_conservation audit check enforces.
  struct DirAccounting {
    std::uint64_t accepted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_on_fail = 0;
    std::uint64_t in_flight = 0;  // on the wire or awaiting replay
    std::uint64_t queued = 0;     // staged in per-VC tx queues
  };
  DirAccounting Accounting(int sender_side) const;

 private:
  friend class LinkEndpoint;

  struct Direction {
    // Sender-side state for one direction (side -> 1-side).
    std::array<std::deque<Flit>, kNumChannels> tx_queues;
    std::array<std::uint32_t, kNumChannels> credits{};
    std::uint32_t in_flight = 0;  // flits serialized/propagating/awaiting replay
    bool wire_busy = false;
    int rr_next_vc = 0;  // round-robin pointer over VCs
    LinkStats stats;
    FlitReceiver* receiver = nullptr;  // component at the far end
    int receiver_port = 0;
    std::function<void()> drain_cb;
    std::vector<std::pair<Flit, bool>> train;  // TryTransmit pick scratch

    // Credit returns travelling back to this sender, coalesced so all
    // credits freed at the same tick ride one event. Entries stay in
    // arrival (= due) order; Fail/Recover clear them alongside bumping the
    // epoch that orphans the matching scheduled flushes.
    struct CreditBatch {
      Tick due;
      std::uint32_t count;
    };
    std::array<std::deque<CreditBatch>, kNumChannels> credit_returns;
  };

  bool Send(int side, const Flit& flit);
  bool CanSend(int side, Channel channel) const;
  void ReturnCredit(int receiver_side, Channel channel);
  void TryTransmit(int side);
  void NotifyDrain(int side);
  void NotifyEpochChange(bool link_up);
  int PickVc(const Direction& dir) const;

  Engine* engine_;
  LinkConfig config_;
  std::string name_;
  // One error-injection stream per direction: which flits a sender sees
  // corrupted depends only on that direction's own traffic.
  Rng dir_rng_[2];
  bool failed_ = false;
  std::uint64_t epoch_ = 0;  // bumped on Fail so in-flight deliveries drop
  // Per-VC credits advertised to each sender, validated once at construction
  // (credits_per_vc * credit_overcommit must not round to zero); Recover()
  // re-fills from this same value.
  std::uint32_t advertised_credits_ = 0;
  Direction dirs_[2];        // dirs_[s] = state for traffic sent by side s
  LinkEndpoint endpoints_[2] = {LinkEndpoint(this, 0), LinkEndpoint(this, 1)};
  MetricGroup metrics_;  // after dirs_: unregisters before the stats die
  AuditScope audit_;     // ditto for the invariant checks

  friend class AuditTestPeer;
};

}  // namespace unifab

#endif  // SRC_FABRIC_LINK_H_
