#include "src/core/collect.h"

#include <algorithm>
#include <cassert>

namespace unifab {

void CollectiveStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "collectives_started", [this] { return collectives_started; });
  group.AddCounterFn(prefix + "collectives_completed", [this] { return collectives_completed; });
  group.AddCounterFn(prefix + "collectives_failed", [this] { return collectives_failed; });
  group.AddCounterFn(prefix + "steps_launched", [this] { return steps_launched; });
  group.AddCounterFn(prefix + "steps_completed", [this] { return steps_completed; });
  group.AddCounterFn(prefix + "step_retries", [this] { return step_retries; });
  group.AddCounterFn(prefix + "transfers_submitted", [this] { return transfers_submitted; });
  group.AddCounterFn(prefix + "transfer_failures", [this] { return transfer_failures; });
  group.AddCounterFn(prefix + "bytes_moved", [this] { return bytes_moved; });
  group.AddCounterFn(prefix + "reserve_denials", [this] { return reserve_denials; });
  group.AddCounterFn(prefix + "algo_ring", [this] { return algo_ring; });
  group.AddCounterFn(prefix + "algo_tree", [this] { return algo_tree; });
  group.AddCounterFn(prefix + "algo_linear", [this] { return algo_linear; });
  group.AddCounterFn(prefix + "algo_hier", [this] { return algo_hier; });
  group.AddCounterFn(prefix + "collectives_queued", [this] { return collectives_queued; });
  group.AddCounterFn(prefix + "collectives_rejected", [this] { return collectives_rejected; });
  group.AddSummaryFn(prefix + "collective_latency_us", [this] { return &collective_latency_us; });
  group.AddSummaryFn(prefix + "straggler_us", [this] { return &straggler_us; });
  group.AddSummaryFn(prefix + "admit_wait_us", [this] { return &admit_wait_us; });
}

CollectiveEngine::CollectiveEngine(Engine* engine, ETransEngine* etrans,
                                   FabricInterconnect* fabric, CollectiveConfig config)
    : engine_(engine), etrans_(etrans), fabric_(fabric), config_(config) {
  metrics_ = MetricGroup(&engine_->metrics(), "core/collect");
  stats_.BindTo(metrics_);
  audit_ = AuditScope(&engine_->audit(), "core/collect");
  // Exactly one terminal status per collective: a second Finish (or a
  // TryFulfill that lost the race) is recorded here instead of
  // double-completing the future.
  audit_.AddCheck("terminal_exactly_once", [this]() -> std::string {
    if (double_terminals_ != 0) {
      return std::to_string(double_terminals_) +
             " collective(s) re-resolved after reaching a terminal status";
    }
    return {};
  });
  audit_.AddCheck("collective_conservation", [this]() -> std::string {
    if (terminal_ > started_) {
      return "terminal=" + std::to_string(terminal_) +
             " > started=" + std::to_string(started_);
    }
    return {};
  });
  // Every reducing step must combine exactly the bytes its transfers carried
  // in: a shortfall or surplus at step completion is data loss/duplication.
  audit_.AddCheck("reduce_byte_conservation", [this]() -> std::string {
    if (reduce_violations_ != 0) {
      return std::to_string(reduce_violations_) +
             " reducing step(s) completed with bytes-in != bytes-planned";
    }
    return {};
  });
}

void CollectiveEngine::RegisterMember(PbrId node, MigrationAgent* agent) {
  members_[node] = agent;
}

MigrationAgent* CollectiveEngine::AgentFor(PbrId node) const {
  auto it = members_.find(node);
  return it == members_.end() ? nullptr : it->second;
}

int CollectiveEngine::SpanOf(const CollectiveGroup& group) const {
  int span = 0;
  for (std::size_t i = 0; i < group.members.size(); ++i) {
    for (std::size_t j = i + 1; j < group.members.size(); ++j) {
      span = std::max(span, fabric_->HopCount(group.members[i].node, group.members[j].node));
    }
  }
  return span;
}

CollectiveFuture CollectiveEngine::Broadcast(const CollectiveGroup& group, int root,
                                             std::uint64_t bytes, CollectiveAlgorithm algo) {
  const int n = group.size();
  if (algo == CollectiveAlgorithm::kAuto) {
    algo = ChooseAlgorithm(CollectiveOp::kBroadcast, n, bytes, SpanOf(group), config_.plan);
  }
  return Run(group, BuildBroadcast(algo, n, root, bytes, config_.plan));
}

CollectiveFuture CollectiveEngine::Scatter(const CollectiveGroup& group, int root,
                                           std::uint64_t slice_bytes) {
  return Run(group, BuildScatter(group.size(), root, slice_bytes));
}

CollectiveFuture CollectiveEngine::Gather(const CollectiveGroup& group, int root,
                                          std::uint64_t slice_bytes) {
  return Run(group, BuildGather(group.size(), root, slice_bytes));
}

CollectiveFuture CollectiveEngine::Reduce(const CollectiveGroup& group, int root,
                                          std::uint64_t bytes, CollectiveAlgorithm algo) {
  const int n = group.size();
  if (algo == CollectiveAlgorithm::kAuto) {
    algo = ChooseAlgorithm(CollectiveOp::kReduce, n, bytes, SpanOf(group), config_.plan);
  }
  return Run(group, BuildReduce(algo, n, root, bytes));
}

CollectiveFuture CollectiveEngine::AllGather(const CollectiveGroup& group,
                                             std::uint64_t slice_bytes,
                                             CollectiveAlgorithm algo) {
  const int n = group.size();
  if (algo == CollectiveAlgorithm::kAuto) {
    algo = ChooseAlgorithm(CollectiveOp::kAllGather, n, slice_bytes, SpanOf(group), config_.plan);
  }
  return Run(group, BuildAllGather(algo, n, slice_bytes));
}

std::vector<int> CollectiveEngine::PodsOf(const CollectiveGroup& group) const {
  // A member's pod is its PBR domain: flat clusters put everything in
  // domain 0, pod clusters assign domain p to pod p (DESIGN.md §11).
  std::vector<int> pods;
  pods.reserve(group.members.size());
  for (const auto& m : group.members) {
    pods.push_back(static_cast<int>(DomainOf(m.node)));
  }
  return pods;
}

CollectiveFuture CollectiveEngine::AllReduce(const CollectiveGroup& group, std::uint64_t bytes,
                                             CollectiveAlgorithm algo) {
  const int n = group.size();
  const std::vector<int> pod_of = PodsOf(group);
  if (algo == CollectiveAlgorithm::kAuto) {
    algo = ChooseAllReduceAlgorithm(n, bytes, SpanOf(group), pod_of, config_.plan);
  }
  if (algo == CollectiveAlgorithm::kHierarchical) {
    return Run(group, BuildHierarchicalAllReduce(n, bytes, pod_of));
  }
  return Run(group, BuildAllReduce(algo, n, bytes));
}

CollectiveFuture CollectiveEngine::Run(const CollectiveGroup& group, CollectiveSchedule sched) {
  auto ac = std::make_shared<Active>();
  ac->id = next_id_++;
  ac->sched = std::move(sched);
  ac->group = group;
  ac->started_at = engine_->Now();
  ++started_;
  ++stats_.collectives_started;
  switch (ac->sched.algo) {
    case CollectiveAlgorithm::kRing: ++stats_.algo_ring; break;
    case CollectiveAlgorithm::kBinomialTree: ++stats_.algo_tree; break;
    case CollectiveAlgorithm::kHierarchical: ++stats_.algo_hier; break;
    default: ++stats_.algo_linear; break;
  }

  const auto& steps = ac->sched.steps;
  ac->steps.resize(steps.size());
  ac->dependents.resize(steps.size());
  ac->steps_remaining = static_cast<int>(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    ac->steps[i].remaining_deps = static_cast<int>(steps[i].deps.size());
    ac->steps[i].attempt.assign(steps[i].transfers.size(), 0);
    for (int dep : steps[i].deps) {
      ac->dependents[static_cast<std::size_t>(dep)].push_back(static_cast<int>(i));
    }
  }

  if (steps.empty()) {
    // Degenerate group (n <= 1 or zero payload): terminal immediately.
    Finish(ac, /*ok=*/true, TransferStatus::kOk);
    return ac->future;
  }
  if (config_.max_queued_collectives > 0 && AnyMemberBusy(ac->group)) {
    // Bounded admission (ROADMAP item 4): wait for the members instead of
    // racing transfers over buffers another collective is still using.
    if (static_cast<int>(admit_queue_.size()) >= config_.max_queued_collectives) {
      ++stats_.collectives_rejected;
      Finish(ac, /*ok=*/false, TransferStatus::kAborted);
      return ac->future;
    }
    ++stats_.collectives_queued;
    ac->queued_at = engine_->Now();
    admit_queue_.push_back(ac);
    return ac->future;
  }
  Admit(ac);
  return ac->future;
}

bool CollectiveEngine::AnyMemberBusy(const CollectiveGroup& group) const {
  for (const auto& m : group.members) {
    auto it = busy_.find(m.node);
    if (it != busy_.end() && it->second > 0) {
      return true;
    }
  }
  return false;
}

void CollectiveEngine::Admit(const std::shared_ptr<Active>& ac) {
  ac->admitted = true;
  for (const auto& m : ac->group.members) {
    ++busy_[m.node];
  }
  ReserveThenLaunch(ac);
}

ArbiterClient* CollectiveEngine::ReservationClient(const std::shared_ptr<Active>& ac) const {
  for (const auto& m : ac->group.members) {
    MigrationAgent* agent = AgentFor(m.node);
    if (agent != nullptr && agent->arbiter() != nullptr) {
      return agent->arbiter();
    }
  }
  return fallback_ != nullptr ? fallback_->arbiter() : nullptr;
}

void CollectiveEngine::ReserveThenLaunch(const std::shared_ptr<Active>& ac) {
  ArbiterClient* client = ReservationClient(ac);
  if (client == nullptr) {
    LaunchReady(ac);
    return;
  }
  // One aggregate reservation per distinct destination node, in sorted node
  // order for determinism. Held (and renewed) for the collective's lifetime.
  std::vector<PbrId> resources;
  for (const auto& step : ac->sched.steps) {
    for (const auto& t : step.transfers) {
      resources.push_back(ac->group.members[static_cast<std::size_t>(t.dst)].node);
    }
  }
  std::sort(resources.begin(), resources.end());
  resources.erase(std::unique(resources.begin(), resources.end()), resources.end());
  ac->reservations_outstanding = static_cast<int>(resources.size());
  for (PbrId node : resources) {
    client->Reserve(node, config_.reserve_mbps, [this, ac, client, node](double granted) {
      if (ac->finished) {
        if (granted > 0.0) {
          client->Release(node, granted);
        }
        return;
      }
      if (granted <= 0.0) {
        ++stats_.reserve_denials;  // unmanaged or saturated: proceed anyway
      } else {
        ac->leases.emplace_back(node, granted);
      }
      if (--ac->reservations_outstanding == 0) {
        if (!ac->leases.empty()) {
          ac->renew_event =
              engine_->Schedule(client->lease_duration(), [this, ac] { RenewLeases(ac); });
        }
        LaunchReady(ac);
      }
    });
  }
}

void CollectiveEngine::RenewLeases(const std::shared_ptr<Active>& ac) {
  ac->renew_event = kInvalidEventId;
  if (ac->finished) {
    return;
  }
  ArbiterClient* client = ReservationClient(ac);
  if (client == nullptr) {
    return;
  }
  for (auto& [node, mbps] : ac->leases) {
    const PbrId res = node;
    client->Reserve(res, config_.reserve_mbps, [this, ac, client, res](double granted) {
      if (ac->finished) {
        if (granted > 0.0) {
          client->Release(res, granted);
        }
        return;
      }
      for (auto& lease : ac->leases) {
        if (lease.first == res) {
          lease.second = granted;  // the arbiter re-ran max-min fair share
          break;
        }
      }
    });
  }
  ac->renew_event = engine_->Schedule(client->lease_duration(), [this, ac] { RenewLeases(ac); });
}

void CollectiveEngine::LaunchReady(const std::shared_ptr<Active>& ac) {
  for (std::size_t i = 0; i < ac->steps.size(); ++i) {
    if (!ac->steps[i].launched && ac->steps[i].remaining_deps == 0) {
      LaunchStep(ac, static_cast<int>(i));
    }
  }
}

void CollectiveEngine::LaunchStep(const std::shared_ptr<Active>& ac, int step_idx) {
  StepState& st = ac->steps[static_cast<std::size_t>(step_idx)];
  st.launched = true;
  ++stats_.steps_launched;
  const auto& step = ac->sched.steps[static_cast<std::size_t>(step_idx)];
  if (step.transfers.empty()) {
    CompleteStep(ac, step_idx);
    return;
  }
  for (std::size_t t = 0; t < step.transfers.size(); ++t) {
    SubmitTransfer(ac, step_idx, static_cast<int>(t), /*attempt=*/0);
  }
}

void CollectiveEngine::SubmitTransfer(const std::shared_ptr<Active>& ac, int step_idx, int t_idx,
                                      int attempt) {
  const StepTransfer& t =
      ac->sched.steps[static_cast<std::size_t>(step_idx)].transfers[static_cast<std::size_t>(t_idx)];
  const CollectiveMember& src = ac->group.members[static_cast<std::size_t>(t.src)];
  const CollectiveMember& dst = ac->group.members[static_cast<std::size_t>(t.dst)];

  ETransDescriptor desc;
  desc.src.push_back(Segment{src.node, src.base + t.src_offset, t.bytes});
  desc.dst.push_back(Segment{dst.node, dst.base + t.dst_offset, t.bytes});
  desc.immediate = false;
  desc.ownership = Ownership::kInitiator;
  desc.attributes.chunk_bytes = config_.transfer_chunk_bytes;
  desc.attributes.pipeline_depth = config_.transfer_pipeline_depth;
  desc.attributes.throttled = false;  // the collective holds the aggregate lease

  MigrationAgent* initiator = AgentFor(src.node);
  if (initiator == nullptr || (!initiator->CanExecute(desc) && fallback_ != nullptr)) {
    initiator = fallback_ != nullptr ? fallback_ : initiator;
  }
  assert(initiator != nullptr && "collective member has no registered agent");

  ++stats_.transfers_submitted;
  etrans_->Submit(initiator, desc)
      .Then([this, ac, step_idx, t_idx, attempt](const TransferResult& r) {
        OnTransferDone(ac, step_idx, t_idx, attempt, r);
      });
}

void CollectiveEngine::OnTransferDone(const std::shared_ptr<Active>& ac, int step_idx, int t_idx,
                                      int attempt, const TransferResult& result) {
  if (ac->finished) {
    return;
  }
  StepState& st = ac->steps[static_cast<std::size_t>(step_idx)];
  if (st.completed || st.attempt[static_cast<std::size_t>(t_idx)] != attempt) {
    return;  // stale: a newer attempt superseded this transfer
  }
  const auto& step = ac->sched.steps[static_cast<std::size_t>(step_idx)];

  if (result.ok) {
    if (st.transfers_done == 0 || result.completed_at < st.first_done) {
      st.first_done = result.completed_at;
    }
    st.last_done = std::max(st.last_done, result.completed_at);
    st.bytes_done += result.bytes;
    ac->bytes_moved += result.bytes;
    stats_.bytes_moved += result.bytes;
    if (++st.transfers_done == static_cast<int>(step.transfers.size())) {
      CompleteStep(ac, step_idx);
    }
    return;
  }

  ++stats_.transfer_failures;
  if (st.retries >= config_.max_step_retries) {
    Finish(ac, /*ok=*/false,
           result.status == TransferStatus::kOk ? TransferStatus::kAborted : result.status);
    return;
  }
  ++st.retries;
  ++stats_.step_retries;
  // Re-issue only the failed transfer under a fresh attempt tag; the step's
  // other transfers (and the rest of the DAG) keep whatever progress they
  // made. Bounded exponential backoff rides on top of eTrans's own retries.
  const int next_attempt = ++st.attempt[static_cast<std::size_t>(t_idx)];
  const int shift = std::min(st.retries - 1, 4);
  engine_->Schedule(config_.step_retry_backoff << shift, [this, ac, step_idx, t_idx,
                                                          next_attempt] {
    if (!ac->finished) {
      SubmitTransfer(ac, step_idx, t_idx, next_attempt);
    }
  });
}

void CollectiveEngine::CompleteStep(const std::shared_ptr<Active>& ac, int step_idx) {
  StepState& st = ac->steps[static_cast<std::size_t>(step_idx)];
  st.completed = true;
  ++stats_.steps_completed;
  const auto& step = ac->sched.steps[static_cast<std::size_t>(step_idx)];
  if (step.reducing) {
    std::uint64_t planned = 0;
    for (const auto& t : step.transfers) {
      planned += t.bytes;
    }
    if (st.bytes_done != planned) {
      ++reduce_violations_;
    }
  }
  if (step.transfers.size() >= 2) {
    stats_.straggler_us.Add(ToUs(st.last_done - st.first_done));
  }
  --ac->steps_remaining;
  for (int dep : ac->dependents[static_cast<std::size_t>(step_idx)]) {
    StepState& next = ac->steps[static_cast<std::size_t>(dep)];
    if (--next.remaining_deps == 0 && !next.launched) {
      LaunchStep(ac, dep);
    }
  }
  if (ac->steps_remaining == 0) {
    Finish(ac, /*ok=*/true, TransferStatus::kOk);
  }
}

void CollectiveEngine::Finish(const std::shared_ptr<Active>& ac, bool ok, TransferStatus status) {
  if (ac->finished) {
    ++double_terminals_;
    return;
  }
  ac->finished = true;
  if (ac->renew_event != kInvalidEventId) {
    engine_->Cancel(ac->renew_event);
    ac->renew_event = kInvalidEventId;
  }
  if (ac->admitted) {
    ac->admitted = false;
    for (const auto& m : ac->group.members) {
      auto it = busy_.find(m.node);
      if (it != busy_.end() && --it->second == 0) {
        busy_.erase(it);
      }
    }
    // Admit waiting collectives whose members all freed up, in FIFO order.
    for (auto it = admit_queue_.begin(); it != admit_queue_.end();) {
      if (!AnyMemberBusy((*it)->group)) {
        std::shared_ptr<Active> next = *it;
        it = admit_queue_.erase(it);
        stats_.admit_wait_us.Add(ToUs(engine_->Now() - next->queued_at));
        Admit(next);
      } else {
        ++it;
      }
    }
  }
  if (!ac->leases.empty()) {
    if (ArbiterClient* client = ReservationClient(ac)) {
      for (const auto& [node, mbps] : ac->leases) {
        if (mbps > 0.0) {
          client->Release(node, mbps);
        }
      }
    }
    ac->leases.clear();
  }
  ++terminal_;
  CollectiveResult result;
  result.ok = ok;
  result.status = status;
  result.completed_at = engine_->Now();
  result.bytes = ac->bytes_moved;
  result.algorithm = ac->sched.algo;
  result.steps = static_cast<int>(ac->sched.steps.size());
  if (ok) {
    ++stats_.collectives_completed;
    stats_.collective_latency_us.Add(ToUs(engine_->Now() - ac->started_at));
  } else {
    ++stats_.collectives_failed;
  }
  if (!ac->future.TryFulfill(result)) {
    ++double_terminals_;
  }
}

}  // namespace unifab
