#include "src/fabric/switch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <utility>

namespace unifab {

void SwitchStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "flits_forwarded", [this] { return flits_forwarded; });
  group.AddCounterFn(prefix + "flits_dropped", [this] { return flits_dropped; });
  group.AddCounterFn(prefix + "hol_blocked_events", [this] { return hol_blocked_events; });
  group.AddSummaryFn(prefix + "queueing_ns", [this] { return &queueing_ns; });
}

FabricSwitch::FabricSwitch(Engine* engine, const SwitchConfig& config, std::string name)
    : engine_(engine), config_(config), name_(std::move(name)) {
  metrics_ = MetricGroup(&engine_->metrics(), "fabric/switch/" + name_);
  stats_.BindTo(metrics_);
  audit_ = AuditScope(&engine_->audit(), "fabric/switch/" + name_);
  // Arbitration visits only ready inputs, so a missing bit strands a flit
  // and a stale one offers a head to the wrong output.
  audit_.AddCheck("ready_set_exact", [this]() -> std::string {
    std::uint64_t queued = 0;
    for (int input = 0; input < num_ports(); ++input) {
      for (const auto& q : inputs_[input].queues) {
        queued += q.size();
      }
      for (int out = 0; out < num_ports(); ++out) {
        const bool has_head = HeadFor(input, out) != nullptr;
        if (Ready(out, input) != has_head) {
          return "output " + std::to_string(out) + " input " + std::to_string(input) +
                 ": ready bit " + std::to_string(Ready(out, input)) + " != has head " +
                 std::to_string(has_head);
        }
      }
    }
    if (queued != queued_) {
      return "queued=" + std::to_string(queued_) + " != sum of queue lengths " +
             std::to_string(queued);
    }
    return {};
  });
}

int FabricSwitch::AttachPort(LinkEndpoint* endpoint) {
  const int port = static_cast<int>(ports_.size());
  ports_.push_back(endpoint);
  inputs_.emplace_back();
  outputs_.emplace_back();
  endpoint->Bind(this, port);
  endpoint->SetDrainCallback([this] { ScheduleArbitration(); });
  // Size every input's queue vector and every output's ready set for the
  // new port count.
  for (auto& in : inputs_) {
    in.queues.resize(config_.virtual_output_queues ? ports_.size() : 1);
  }
  for (auto& op : outputs_) {
    op.ready.resize((ports_.size() + 63) / 64, 0);
  }
  return port;
}

void FabricSwitch::SetRoute(PbrId dst, int out_port) {
  assert(out_port >= 0 && out_port < num_ports());
  routes_[dst] = out_port;
}

void FabricSwitch::SetDefaultRoute(int out_port) { default_route_ = out_port; }

bool FabricSwitch::HasRoute(PbrId dst) const { return routes_.count(dst) != 0; }

int FabricSwitch::RouteFor(PbrId dst) const {
  auto it = routes_.find(dst);
  if (it != routes_.end()) {
    return it->second;
  }
  return default_route_;
}

void FabricSwitch::SetSourcePriority(PbrId src, int priority) { priorities_[src] = priority; }

int FabricSwitch::PriorityOf(PbrId src) const {
  auto it = priorities_.find(src);
  return it == priorities_.end() ? 0 : it->second;
}

void FabricSwitch::ReceiveFlit(const Flit& flit, int port) {
  assert(port >= 0 && port < num_ports());
  const int out = RouteFor(flit.dst);
  // An unroutable flit is dropped; the input credit is returned so the link
  // does not wedge. Real switches raise an error interrupt here.
  if (out < 0) {
    ports_[port]->ReturnCredit(flit.channel);
    return;
  }
  // A reroute can overtake a mid-flight flit and leave its best path
  // pointing back out the port it arrived on. The crossbar cannot hairpin,
  // and parking the flit in the input==out VOQ would strand its credit and
  // eventually wedge the upstream link's whole credit window; treat it as a
  // loss instead — the sender's retry rides the new tables end to end.
  if (out == port) {
    ports_[port]->ReturnCredit(flit.channel);
    ++stats_.flits_dropped;
    return;
  }
  auto& q = QueueFor(port, out);
  if (q.empty()) {
    SetReady(out, port);  // the flit is its queue's new head
  }
  q.push_back(QueuedFlit{flit, out, engine_->Now(), arrival_counter_++});
  ++queued_;
  ScheduleArbitration();
}

void FabricSwitch::ScheduleArbitration() {
  if (arb_scheduled_) {
    return;
  }
  arb_scheduled_ = true;
  engine_->Schedule(0, [this] {
    arb_scheduled_ = false;
    Arbitrate();
  });
}

void FabricSwitch::Arbitrate() {
  // Credit reallocation is evaluated lazily on arbitration passes instead of
  // on a free-running timer, so an idle fabric lets the event queue drain.
  if (config_.credit_alloc == CreditAllocPolicy::kExponentialRampUp &&
      engine_->Now() >= next_realloc_) {
    ReallocateCredits();
    next_realloc_ = engine_->Now() + config_.credit_realloc_period;
  }
  // Keep matching inputs to outputs until no output can make progress. With
  // VOQs an output with no ready input cannot win a flit and is skipped;
  // single-FIFO inputs visit every output, because a visit that finds no
  // winner is where head-of-line blocking is counted.
  bool progress = true;
  while (progress && queued_ != 0) {
    progress = false;
    for (int out = 0; out < num_ports(); ++out) {
      if (config_.virtual_output_queues && !AnyReady(out)) {
        continue;
      }
      if (ForwardOneTo(out)) {
        progress = true;
      }
    }
  }
}

std::deque<FabricSwitch::QueuedFlit>& FabricSwitch::QueueFor(int input, int out) {
  auto& queues = inputs_[input].queues;
  return config_.virtual_output_queues ? queues[static_cast<std::size_t>(out)] : queues[0];
}

const std::deque<FabricSwitch::QueuedFlit>& FabricSwitch::QueueFor(int input, int out) const {
  const auto& queues = inputs_[input].queues;
  return config_.virtual_output_queues ? queues[static_cast<std::size_t>(out)] : queues[0];
}

const FabricSwitch::QueuedFlit* FabricSwitch::HeadFor(int input, int out) const {
  const auto& q = QueueFor(input, out);
  return !q.empty() && q.front().out_port == out ? &q.front() : nullptr;
}

bool FabricSwitch::Ready(int out, int input) const {
  return (outputs_[out].ready[static_cast<std::size_t>(input) / 64] >> (input % 64)) & 1u;
}

void FabricSwitch::SetReady(int out, int input) {
  outputs_[out].ready[static_cast<std::size_t>(input) / 64] |= std::uint64_t{1} << (input % 64);
}

void FabricSwitch::ClearReady(int out, int input) {
  outputs_[out].ready[static_cast<std::size_t>(input) / 64] &=
      ~(std::uint64_t{1} << (input % 64));
}

bool FabricSwitch::AnyReady(int out) const {
  for (const std::uint64_t word : outputs_[out].ready) {
    if (word != 0) {
      return true;
    }
  }
  return false;
}

void FabricSwitch::PopHead(int input, int out) {
  auto& q = QueueFor(input, out);
  q.pop_front();
  --queued_;
  if (config_.virtual_output_queues) {
    if (q.empty()) {
      ClearReady(out, input);
    }
    return;
  }
  // A single FIFO's next flit becomes the head, ready for its own output.
  ClearReady(out, input);
  if (!q.empty()) {
    SetReady(q.front().out_port, input);
  }
}

bool FabricSwitch::OutputCanAccept(int out, Channel channel) const {
  const LinkEndpoint* ep = ports_[out];
  const std::uint32_t depth = ep->config().tx_queue_depth;
  const auto in_queue = static_cast<std::uint32_t>(ep->QueueDepth(channel));
  return in_queue + outputs_[out].reserved[static_cast<int>(channel)] < depth;
}

bool FabricSwitch::ArrivesBefore(const QueuedFlit& a, const QueuedFlit& b) {
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

int FabricSwitch::PickInput(int out) {
  // Every ready input's head wants `out`; a candidate also needs room for
  // its channel at the output. Candidates are visited in rotation order
  // from rr_next_input. A ready set never holds `out` itself: ReceiveFlit
  // drops hairpins, so the crossbar never turns a flit around.
  int best = -1;
  const QueuedFlit* best_head = nullptr;
  int best_priority = 0;
  double best_weight = 0.0;

  const OutputPort& op = outputs_[out];
  const int words = static_cast<int>(op.ready.size());
  const int first_word = op.rr_next_input / 64;
  const std::uint64_t from_start = ~std::uint64_t{0} << (op.rr_next_input % 64);
  // The first word is visited twice: its bits from the rotation start on,
  // then, after wrapping around, the bits before it.
  for (int k = 0; k <= words; ++k) {
    const int w = (first_word + k) % words;
    std::uint64_t bits = op.ready[static_cast<std::size_t>(w)];
    if (k == 0) {
      bits &= from_start;
    } else if (k == words) {
      bits &= ~from_start;
    }
    for (; bits != 0; bits &= bits - 1) {
      const int input = w * 64 + std::countr_zero(bits);
      const QueuedFlit* head = HeadFor(input, out);
      assert(head != nullptr && input != out);
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
          // First hit in rotation order wins.
          return input;
        case SwitchArbitration::kWeighted: {
          const double weight = inputs_[input].weight;
          if (best < 0 || weight > best_weight) {
            best = input;
            best_weight = weight;
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
  }
  return best;
}

bool FabricSwitch::ForwardOneTo(int out) {
  const int input = PickInput(out);
  if (input < 0) {
    // Measure head-of-line blocking: in single-FIFO mode, count cases where
    // the head cannot move but a flit behind it could have.
    if (!config_.virtual_output_queues) {
      for (int i = 0; i < num_ports(); ++i) {
        auto& q = inputs_[i].queues[0];
        if (q.size() < 2) {
          continue;
        }
        const QueuedFlit& head = q.front();
        if (OutputCanAccept(head.out_port, head.flit.channel)) {
          continue;  // head is not blocked
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

  QueuedFlit& head = QueueFor(input, out).front();
  Flit flit = std::move(head.flit);
  const Tick waited = engine_->Now() - head.arrival;
  PopHead(input, out);

  outputs_[out].rr_next_input = (input + 1) % num_ports();
  outputs_[out].reserved[static_cast<int>(flit.channel)]++;
  inputs_[input].forwarded_this_period++;

  // The input buffer slot frees as soon as the flit enters the crossbar
  // (cut-through), so return the upstream credit now.
  ports_[input]->ReturnCredit(flit.channel);

  stats_.queueing_ns.Add(ToNs(waited));
  ++stats_.flits_forwarded;

  engine_->Schedule(config_.port_latency, [this, out, flit = std::move(flit)] {
    outputs_[out].reserved[static_cast<int>(flit.channel)]--;
    const bool sent = ports_[out]->Send(flit);
    if (!sent) {
      // The reservation guarantees queue room, so a refusal means the output
      // link failed while the flit crossed the crossbar: drop it (§3 #5 —
      // nothing downstream will signal the loss).
      ++stats_.flits_dropped;
    }
    ScheduleArbitration();
  });
  return true;
}

void FabricSwitch::ReallocateCredits() {
  // Utilization-driven exponential ramp-up (§3, "a consistently
  // heavily-used port would take more credits"): ports forwarding more than
  // the average active port double their share; the rest decay. This is the
  // de facto allocator whose interference the D3b bench demonstrates.
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

}  // namespace unifab
