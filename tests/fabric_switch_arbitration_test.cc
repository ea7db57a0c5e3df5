// Reference-model test for the switch arbiter's per-output ready sets.
//
// FabricSwitch arbitrates each output by walking only the inputs whose head
// flit wants that output. ReferenceSwitch below is the full-scan arbiter it
// replaced: every output visit asks every input, in rotation order, whether
// its head wants the output. Both switches sit in identical stars and get
// identical seeded traffic; every flit must reach the same port at the same
// tick in the same order, and the switch statistics must match exactly,
// across arbitration policy x input queueing x credit allocator x port count.
// Output tx queues are two flits deep and some sinks hold their credits, so
// outputs keep refusing candidates and rotation, ties and head-of-line
// blocking all decide real outcomes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fabric/link.h"
#include "src/fabric/switch.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace unifab {
namespace {

// The full-scan arbiter, as FabricSwitch ran it before ready sets: PickInput
// calls HeadFor on every input for every output visit. Kept only as the
// reference the real switch must match decision for decision.
class ReferenceSwitch : public FlitReceiver {
 public:
  ReferenceSwitch(Engine* engine, const SwitchConfig& config, std::string /*name*/)
      : engine_(engine), config_(config) {}

  int AttachPort(LinkEndpoint* endpoint) {
    const int port = static_cast<int>(ports_.size());
    ports_.push_back(endpoint);
    inputs_.emplace_back();
    outputs_.emplace_back();
    endpoint->Bind(this, port);
    endpoint->SetDrainCallback([this] { ScheduleArbitration(); });
    for (auto& in : inputs_) {
      in.queues.resize(config_.virtual_output_queues ? ports_.size() : 1);
    }
    return port;
  }

  void SetRoute(PbrId dst, int out_port) { routes_[dst] = out_port; }
  void SetSourcePriority(PbrId src, int priority) { priorities_[src] = priority; }

  void ReceiveFlit(const Flit& flit, int port) override {
    auto it = routes_.find(flit.dst);
    const int out = it == routes_.end() ? -1 : it->second;
    if (out < 0) {
      ports_[port]->ReturnCredit(flit.channel);
      return;
    }
    if (out == port) {
      ports_[port]->ReturnCredit(flit.channel);
      ++stats_.flits_dropped;
      return;
    }
    const std::size_t qi = config_.virtual_output_queues ? static_cast<std::size_t>(out) : 0;
    inputs_[port].queues[qi].push_back(QueuedFlit{flit, out, engine_->Now(), arrival_counter_++});
    ScheduleArbitration();
  }

  const SwitchStats& stats() const { return stats_; }
  double InputWeight(int port) const { return inputs_[port].weight; }

 private:
  struct QueuedFlit {
    Flit flit;
    int out_port;
    Tick arrival;
    std::uint64_t order;
  };
  struct InputPort {
    std::vector<std::deque<QueuedFlit>> queues;
    double weight = 1.0;
    std::uint64_t forwarded_this_period = 0;
  };
  struct OutputPort {
    int rr_next_input = 0;
    std::uint32_t reserved[kNumChannels] = {0, 0, 0, 0};
  };

  int num_ports() const { return static_cast<int>(ports_.size()); }

  void ScheduleArbitration() {
    if (arb_scheduled_) {
      return;
    }
    arb_scheduled_ = true;
    engine_->Schedule(0, [this] {
      arb_scheduled_ = false;
      Arbitrate();
    });
  }

  void Arbitrate() {
    if (config_.credit_alloc == CreditAllocPolicy::kExponentialRampUp &&
        engine_->Now() >= next_realloc_) {
      ReallocateCredits();
      next_realloc_ = engine_->Now() + config_.credit_realloc_period;
    }
    bool progress = true;
    while (progress) {
      progress = false;
      for (int out = 0; out < num_ports(); ++out) {
        if (ForwardOneTo(out)) {
          progress = true;
        }
      }
    }
  }

  bool HeadFor(int input, int out, QueuedFlit** head) {
    InputPort& in = inputs_[input];
    if (config_.virtual_output_queues) {
      auto& q = in.queues[static_cast<std::size_t>(out)];
      if (q.empty()) {
        return false;
      }
      *head = &q.front();
      return true;
    }
    auto& q = in.queues[0];
    if (q.empty() || q.front().out_port != out) {
      return false;
    }
    *head = &q.front();
    return true;
  }

  void PopHead(int input, int out) {
    InputPort& in = inputs_[input];
    auto& q = config_.virtual_output_queues ? in.queues[static_cast<std::size_t>(out)]
                                            : in.queues[0];
    q.pop_front();
  }

  bool OutputCanAccept(int out, Channel channel) const {
    const LinkEndpoint* ep = ports_[out];
    const auto in_queue = static_cast<std::uint32_t>(ep->QueueDepth(channel));
    return in_queue + outputs_[out].reserved[static_cast<int>(channel)] <
           ep->config().tx_queue_depth;
  }

  static bool ArrivesBefore(const QueuedFlit& a, const QueuedFlit& b) {
    if (a.arrival != b.arrival) {
      return a.arrival < b.arrival;
    }
    if (a.flit.src != b.flit.src) {
      return a.flit.src < b.flit.src;
    }
    if (a.flit.txn_id != b.flit.txn_id) {
      return a.flit.txn_id < b.flit.txn_id;
    }
    if (a.flit.seq != b.flit.seq) {
      return a.flit.seq < b.flit.seq;
    }
    return a.order < b.order;
  }

  int PriorityOf(PbrId src) const {
    auto it = priorities_.find(src);
    return it == priorities_.end() ? 0 : it->second;
  }

  int PickInput(int out) {
    int best = -1;
    const QueuedFlit* best_head = nullptr;
    int best_priority = 0;
    double best_weight = 0.0;
    const int n = num_ports();
    OutputPort& op = outputs_[out];
    for (int i = 0; i < n; ++i) {
      const int input = (op.rr_next_input + i) % n;
      if (input == out) {
        continue;
      }
      QueuedFlit* head = nullptr;
      if (!HeadFor(input, out, &head)) {
        continue;
      }
      if (!OutputCanAccept(out, head->flit.channel)) {
        continue;
      }
      switch (config_.arbitration) {
        case SwitchArbitration::kFifo:
          if (best < 0 || ArrivesBefore(*head, *best_head)) {
            best = input;
            best_head = head;
          }
          break;
        case SwitchArbitration::kRoundRobin:
          return input;
        case SwitchArbitration::kWeighted: {
          const double w = inputs_[input].weight;
          if (best < 0 || w > best_weight) {
            best = input;
            best_weight = w;
          }
          break;
        }
        case SwitchArbitration::kPriority: {
          const int p = PriorityOf(head->flit.src);
          if (best < 0 || p > best_priority ||
              (p == best_priority && ArrivesBefore(*head, *best_head))) {
            best = input;
            best_priority = p;
            best_head = head;
          }
          break;
        }
      }
    }
    return best;
  }

  bool ForwardOneTo(int out) {
    const int input = PickInput(out);
    if (input < 0) {
      if (!config_.virtual_output_queues) {
        for (int i = 0; i < num_ports(); ++i) {
          auto& q = inputs_[i].queues[0];
          if (q.size() < 2) {
            continue;
          }
          const QueuedFlit& head = q.front();
          if (OutputCanAccept(head.out_port, head.flit.channel)) {
            continue;
          }
          for (std::size_t k = 1; k < q.size(); ++k) {
            if (q[k].out_port != head.out_port &&
                OutputCanAccept(q[k].out_port, q[k].flit.channel)) {
              ++stats_.hol_blocked_events;
              break;
            }
          }
        }
      }
      return false;
    }
    QueuedFlit* head = nullptr;
    HeadFor(input, out, &head);
    const Flit flit = head->flit;
    const Tick waited = engine_->Now() - head->arrival;
    PopHead(input, out);
    outputs_[out].rr_next_input = (input + 1) % num_ports();
    outputs_[out].reserved[static_cast<int>(flit.channel)]++;
    inputs_[input].forwarded_this_period++;
    ports_[input]->ReturnCredit(flit.channel);
    stats_.queueing_ns.Add(ToNs(waited));
    ++stats_.flits_forwarded;
    engine_->Schedule(config_.port_latency, [this, out, flit] {
      outputs_[out].reserved[static_cast<int>(flit.channel)]--;
      if (!ports_[out]->Send(flit)) {
        ++stats_.flits_dropped;
      }
      ScheduleArbitration();
    });
    return true;
  }

  void ReallocateCredits() {
    std::uint64_t total = 0;
    int active = 0;
    for (const auto& in : inputs_) {
      total += in.forwarded_this_period;
      if (in.forwarded_this_period > 0) {
        ++active;
      }
    }
    const double avg = active > 0 ? static_cast<double>(total) / active : 0.0;
    for (auto& in : inputs_) {
      if (avg > 0.0 && static_cast<double>(in.forwarded_this_period) >= avg) {
        in.weight = std::min(config_.max_weight, in.weight * 2.0);
      } else {
        in.weight = std::max(config_.min_weight, in.weight / 2.0);
      }
      in.forwarded_this_period = 0;
    }
  }

  Engine* engine_;
  SwitchConfig config_;
  std::vector<LinkEndpoint*> ports_;
  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;
  std::unordered_map<PbrId, int> routes_;
  std::unordered_map<PbrId, int> priorities_;
  Tick next_realloc_ = 0;
  bool arb_scheduled_ = false;
  std::uint64_t arrival_counter_ = 0;
  SwitchStats stats_;
};

// One flit arriving at a star node, in arrival order across all nodes.
struct Delivery {
  Tick at;
  int port;
  PbrId src;
  std::uint64_t txn_id;
  std::uint32_t seq;
  bool operator==(const Delivery&) const = default;
};

class Node : public FlitReceiver {
 public:
  Node(Engine* engine, int port, Tick credit_hold, std::vector<Delivery>* log)
      : engine_(engine), port_(port), credit_hold_(credit_hold), log_(log) {}

  void ReceiveFlit(const Flit& flit, int /*port*/) override {
    log_->push_back(Delivery{engine_->Now(), port_, flit.src, flit.txn_id, flit.seq});
    if (credit_hold_ == 0) {
      endpoint->ReturnCredit(flit.channel);
    } else {
      engine_->Schedule(credit_hold_, [this, ch = flit.channel] { endpoint->ReturnCredit(ch); });
    }
  }

  LinkEndpoint* endpoint = nullptr;

 private:
  Engine* engine_;
  int port_;
  Tick credit_hold_;
  std::vector<Delivery>* log_;
};

struct Case {
  SwitchArbitration arbitration;
  bool tied_priorities;  // kPriority only: sources alternate priorities 0 and 1
  bool voq;
  CreditAllocPolicy alloc;
  int ports;
};

// Keeps gtest from printing the struct's padding bytes into test names.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "arbitration " << static_cast<int>(c.arbitration) << " tied " << c.tied_priorities
      << " voq " << c.voq << " alloc " << static_cast<int>(c.alloc) << " ports " << c.ports;
}

constexpr PbrId kAliasSrc = 0x777;    // a src several nodes share, so ties reach txn/seq
constexpr PbrId kUnroutable = 0xFFF;  // no route anywhere

PbrId NodeId(int i) { return static_cast<PbrId>(i + 1); }

// A send the traffic schedule fires at `at` from node `node`.
struct Send {
  Tick at;
  int node;
  Flit flit;
};

// Seeded traffic from at most 24 senders, so single FIFOs run deep: the
// three hot ports (first, middle and last, one per ready-set word at 130
// ports) plus random others. Sends sit on a 20 ns grid (so arrivals tie
// across inputs); 40% go to the hot outputs, some are hairpins or
// unroutable, channels are random, and a shared src alias with small txn
// ids and seqs makes FIFO and priority ties go all the way down.
std::vector<Send> MakeTraffic(const Case& c, std::uint64_t seed) {
  Rng rng(seed);
  const int n = c.ports;
  const int hot[3] = {0, n / 2, n - 1};
  std::vector<int> others;
  for (int i = 1; i < n - 1; ++i) {
    if (i != n / 2) {
      others.push_back(i);
    }
  }
  rng.Shuffle(others);
  std::vector<int> senders(hot, hot + 3);
  for (const int i : others) {
    if (senders.size() == 24) {
      break;
    }
    senders.push_back(i);
  }
  std::vector<Send> sends;
  constexpr int kFlits = 1600;
  for (int k = 0; k < kFlits; ++k) {
    Send s;
    s.node = senders[rng.NextBelow(senders.size())];
    s.at = FromNs(20.0) * static_cast<Tick>(rng.NextBelow(600));
    const double r = rng.NextDouble();
    if (r < 0.05) {
      s.flit.dst = NodeId(s.node);  // hairpin: the switch drops it
    } else if (r < 0.08) {
      s.flit.dst = kUnroutable;
    } else if (r < 0.48) {
      s.flit.dst = NodeId(hot[rng.NextBelow(3)]);
    } else {
      s.flit.dst = NodeId(static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(n))));
    }
    s.flit.src = rng.NextBool(0.25) ? kAliasSrc : NodeId(s.node);
    s.flit.txn_id = rng.NextInRange(1, 6);
    s.flit.seq = static_cast<std::uint32_t>(rng.NextBelow(3));
    s.flit.channel = static_cast<Channel>(rng.NextBelow(kNumChannels));
    s.flit.opcode = Opcode::kMemWr;
    s.flit.payload_bytes = 64;
    sends.push_back(s);
  }
  return sends;
}

template <typename SwitchT>
struct Star {
  Star(const Case& c, const std::vector<Send>& traffic, std::uint64_t seed) {
    SwitchConfig cfg;
    cfg.arbitration = c.arbitration;
    cfg.virtual_output_queues = c.voq;
    cfg.credit_alloc = c.alloc;
    cfg.credit_realloc_period = FromNs(300.0);
    sw = std::make_unique<SwitchT>(&engine, cfg, "sw");

    LinkConfig link;
    link.gigatransfers_per_sec = 16.0;
    link.lanes = 4;
    link.credits_per_vc = 2;
    link.tx_queue_depth = 2;
    Rng rng(seed ^ 0x5bd1e995u);
    for (int i = 0; i < c.ports; ++i) {
      // Every third node holds its credits, so its output backs up.
      const Tick hold = i % 3 == 1 ? FromNs(100.0) * static_cast<Tick>(1 + rng.NextBelow(20)) : 0;
      nodes.push_back(std::make_unique<Node>(&engine, i, hold, &log));
      links.push_back(std::make_unique<Link>(&engine, link, 100 + static_cast<std::uint64_t>(i),
                                             "l" + std::to_string(i)));
      const int port = sw->AttachPort(&links.back()->end(0));
      links.back()->end(1).Bind(nodes.back().get(), 0);
      nodes.back()->endpoint = &links.back()->end(1);
      sw->SetRoute(NodeId(i), port);
    }
    if (c.arbitration == SwitchArbitration::kPriority) {
      for (int i = 0; i < c.ports; ++i) {
        // Untied: a distinct priority per source (a permutation of 0..n-1).
        const int p = c.tied_priorities ? i % 2 : (i * 37 + 11) % c.ports;
        sw->SetSourcePriority(NodeId(i), p);
      }
      sw->SetSourcePriority(kAliasSrc, c.tied_priorities ? 1 : c.ports);
    }
    for (const Send& s : traffic) {
      engine.ScheduleAt(s.at, [this, s] {
        Flit f = s.flit;
        f.created_at = engine.Now();
        nodes[static_cast<std::size_t>(s.node)]->endpoint->Send(f);  // full queue: dropped
      });
    }
  }

  Engine engine;
  std::unique_ptr<SwitchT> sw;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<Delivery> log;
};

std::string Describe(const Delivery& d) {
  return "t=" + std::to_string(d.at) + " port=" + std::to_string(d.port) +
         " src=" + std::to_string(d.src) + " txn=" + std::to_string(d.txn_id) +
         " seq=" + std::to_string(d.seq);
}

class ArbitrationReferenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(ArbitrationReferenceTest, MatchesFullScanArbiter) {
  const Case& c = GetParam();
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Send> traffic = MakeTraffic(c, seed);
    Star<FabricSwitch> real(c, traffic, seed);
    Star<ReferenceSwitch> ref(c, traffic, seed);
    real.engine.Run();
    ref.engine.Run();

    ASSERT_FALSE(ref.log.empty());
    const std::size_t common = std::min(real.log.size(), ref.log.size());
    for (std::size_t i = 0; i < common; ++i) {
      ASSERT_EQ(real.log[i], ref.log[i])
          << "delivery " << i << ": switch " << Describe(real.log[i]) << ", reference "
          << Describe(ref.log[i]);
    }
    ASSERT_EQ(real.log.size(), ref.log.size());

    const SwitchStats& a = real.sw->stats();
    const SwitchStats& b = ref.sw->stats();
    EXPECT_EQ(a.flits_forwarded, b.flits_forwarded);
    EXPECT_EQ(a.flits_dropped, b.flits_dropped);
    EXPECT_EQ(a.hol_blocked_events, b.hol_blocked_events);
    EXPECT_EQ(a.queueing_ns.Count(), b.queueing_ns.Count());
    EXPECT_EQ(a.queueing_ns.Sum(), b.queueing_ns.Sum());
    EXPECT_EQ(a.queueing_ns.Max(), b.queueing_ns.Max());
    EXPECT_EQ(a.queueing_ns.P99(), b.queueing_ns.P99());
    for (int p = 0; p < c.ports; ++p) {
      EXPECT_EQ(real.sw->InputWeight(p), ref.sw->InputWeight(p)) << "input " << p;
    }
    EXPECT_EQ(real.engine.TotalFired(), ref.engine.TotalFired());
    EXPECT_TRUE(real.engine.audit().Sweep().empty());

    // The sweep must exercise what it claims to: hairpins were dropped, and
    // flits waited in input buffers, which only happens when an output
    // refuses (a pass keeps forwarding until no output can take a flit).
    EXPECT_GT(b.flits_dropped, 0u);
    EXPECT_GT(b.queueing_ns.Max(), 0.0);
    if (!c.voq) {
      EXPECT_GT(b.hol_blocked_events, 0u);
    }
  }
}

std::vector<Case> AllCases() {
  struct Policy {
    SwitchArbitration arbitration;
    bool tied;
  };
  const Policy policies[] = {{SwitchArbitration::kFifo, false},
                             {SwitchArbitration::kRoundRobin, false},
                             {SwitchArbitration::kWeighted, false},
                             {SwitchArbitration::kPriority, true},
                             {SwitchArbitration::kPriority, false}};
  std::vector<Case> cases;
  for (const Policy& p : policies) {
    for (const bool voq : {true, false}) {
      for (const CreditAllocPolicy alloc :
           {CreditAllocPolicy::kStatic, CreditAllocPolicy::kExponentialRampUp}) {
        for (const int ports : {3, 10, 64, 65, 130}) {
          cases.push_back(Case{p.arbitration, p.tied, voq, alloc, ports});
        }
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name;
  switch (c.arbitration) {
    case SwitchArbitration::kFifo:
      name = "Fifo";
      break;
    case SwitchArbitration::kRoundRobin:
      name = "RoundRobin";
      break;
    case SwitchArbitration::kWeighted:
      name = "Weighted";
      break;
    case SwitchArbitration::kPriority:
      name = c.tied_priorities ? "PriorityTied" : "PriorityUntied";
      break;
  }
  name += c.voq ? "_Voq" : "_SingleFifo";
  name += c.alloc == CreditAllocPolicy::kStatic ? "_Static" : "_RampUp";
  return name + "_" + std::to_string(c.ports) + "ports";
}

INSTANTIATE_TEST_SUITE_P(Sweep, ArbitrationReferenceTest, ::testing::ValuesIn(AllCases()),
                         CaseName);

}  // namespace
}  // namespace unifab
