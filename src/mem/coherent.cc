#include "src/mem/coherent.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace unifab {

const char* CohOpName(CohOp op) {
  switch (op) {
    case CohOp::kGetS:
      return "GetS";
    case CohOp::kGetM:
      return "GetM";
    case CohOp::kPutM:
      return "PutM";
    case CohOp::kPutS:
      return "PutS";
    case CohOp::kData:
      return "Data";
    case CohOp::kDataM:
      return "DataM";
    case CohOp::kInv:
      return "Inv";
    case CohOp::kInvAck:
      return "InvAck";
    case CohOp::kRecall:
      return "Recall";
    case CohOp::kRecallResp:
      return "RecallResp";
    case CohOp::kBackInval:
      return "BackInval";
    case CohOp::kBackInvalAck:
      return "BackInvalAck";
    case CohOp::kNack:
      return "Nack";
  }
  return "?";
}

// --------------------------- stats bindings -------------------------------

void CoherentDirStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "gets", [this] { return gets; });
  group.AddCounterFn(prefix + "getm", [this] { return getm; });
  group.AddCounterFn(prefix + "putm", [this] { return putm; });
  group.AddCounterFn(prefix + "puts", [this] { return puts; });
  group.AddCounterFn(prefix + "recalls", [this] { return recalls; });
  group.AddCounterFn(prefix + "invalidations", [this] { return invalidations; });
  group.AddCounterFn(prefix + "queued_requests", [this] { return queued_requests; });
  group.AddCounterFn(prefix + "back_invals_sent", [this] { return back_invals_sent; });
  group.AddCounterFn(prefix + "back_inval_acks", [this] { return back_inval_acks; });
  group.AddCounterFn(prefix + "back_inval_acks_stale", [this] { return back_inval_acks_stale; });
  group.AddCounterFn(prefix + "back_inval_timeouts", [this] { return back_inval_timeouts; });
  group.AddCounterFn(prefix + "sharer_recalls", [this] { return sharer_recalls; });
  group.AddCounterFn(prefix + "filter_evictions", [this] { return filter_evictions; });
  group.AddCounterFn(prefix + "filter_parked", [this] { return filter_parked; });
  group.AddCounterFn(prefix + "nacks_sent", [this] { return nacks_sent; });
  group.AddCounterFn(prefix + "txn_aborts", [this] { return txn_aborts; });
  group.AddCounterFn(prefix + "stale_acks", [this] { return stale_acks; });
  group.AddCounterFn(prefix + "implicit_evict_acks", [this] { return implicit_evict_acks; });
}

void CoherentPortStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "read_hits", [this] { return read_hits; });
  group.AddCounterFn(prefix + "read_misses", [this] { return read_misses; });
  group.AddCounterFn(prefix + "write_hits", [this] { return write_hits; });
  group.AddCounterFn(prefix + "upgrades", [this] { return upgrades; });
  group.AddCounterFn(prefix + "write_misses", [this] { return write_misses; });
  group.AddCounterFn(prefix + "invalidations_received",
                     [this] { return invalidations_received; });
  group.AddCounterFn(prefix + "recalls_received", [this] { return recalls_received; });
  group.AddCounterFn(prefix + "back_invals_received", [this] { return back_invals_received; });
  group.AddCounterFn(prefix + "nacks_received", [this] { return nacks_received; });
  group.AddCounterFn(prefix + "txn_timeouts", [this] { return txn_timeouts; });
  group.AddCounterFn(prefix + "txn_failures", [this] { return txn_failures; });
  group.AddSummaryFn(prefix + "miss_latency_ns", [this] { return &miss_latency_ns; });
}

// ------------------------------ CoherentPort ------------------------------

CoherentPort::CoherentPort(Engine* engine, const CoherentConfig& config,
                           MessageDispatcher* dispatcher, CoherentDirectory* home,
                           std::string name)
    : engine_(engine),
      config_(config),
      dispatcher_(dispatcher),
      home_(home),
      name_(std::move(name)),
      cache_(config.port_cache) {
  dispatcher_->RegisterService(kSvcCoherent,
                               [this](const FabricMessage& msg) { HandleMessage(msg); });
  host_index_ = home_->RegisterPort(this);
  metrics_ = MetricGroup(&engine_->metrics(), "mem/coherent/port/" + name_);
  stats_.BindTo(metrics_);
  cache_.stats().BindTo(metrics_, "cache/");
}

void CoherentPort::SendToHome(CohOp op, std::uint64_t block, bool with_data) {
  auto msg = std::make_shared<CohMsg>();
  msg->op = op;
  msg->block = block;
  msg->requester = host_index_;
  const std::uint32_t bytes = config_.ctrl_msg_bytes + (with_data ? config_.block_bytes : 0);
  dispatcher_->Send(home_->fabric_id(), kSvcCoherent, static_cast<std::uint64_t>(op), bytes,
                    std::move(msg), Channel::kCache);
}

void CoherentPort::Read(std::uint64_t addr, std::function<void(bool)> done) {
  const std::uint64_t block = cache_.LineBase(addr);
  if (cache_.Access(block, /*is_write=*/false)) {
    ++stats_.read_hits;
    engine_->Schedule(config_.port_hit_latency, [done = std::move(done)] {
      if (done) {
        done(true);
      }
    });
    return;
  }
  ++stats_.read_misses;
  StartMiss(block, /*wants_m=*/false, std::move(done));
}

void CoherentPort::Write(std::uint64_t addr, std::function<void(bool)> done) {
  const std::uint64_t block = cache_.LineBase(addr);
  if (cache_.Contains(block)) {
    if (cache_.IsDirty(block)) {
      cache_.Access(block, /*is_write=*/true);
      ++stats_.write_hits;
      engine_->Schedule(config_.port_hit_latency, [done = std::move(done)] {
        if (done) {
          done(true);
        }
      });
      return;
    }
    ++stats_.upgrades;
    StartMiss(block, /*wants_m=*/true, std::move(done));
    return;
  }
  ++stats_.write_misses;
  StartMiss(block, /*wants_m=*/true, std::move(done));
}

void CoherentPort::StartMiss(std::uint64_t block, bool wants_m, std::function<void(bool)> done) {
  auto [it, inserted] = pending_.try_emplace(block);
  PendingTxn& txn = it->second;
  txn.waiters.push_back(std::move(done));
  if (!inserted) {
    txn.wants_m = txn.wants_m || wants_m;
    return;
  }
  txn.wants_m = wants_m;
  txn.started_at = engine_->Now();
  if (config_.txn_deadline > 0) {
    txn.deadline =
        engine_->Schedule(config_.txn_deadline, [this, block] { OnTxnTimeout(block); });
  }
  SendToHome(wants_m ? CohOp::kGetM : CohOp::kGetS, block, /*with_data=*/false);
}

void CoherentPort::HandleMessage(const FabricMessage& msg) {
  const auto coh = std::static_pointer_cast<CohMsg>(msg.body);
  assert(coh != nullptr);
  switch (coh->op) {
    case CohOp::kData:
    case CohOp::kDataM:
      OnGrant(*coh);
      break;
    case CohOp::kInv:
      OnInv(*coh);
      break;
    case CohOp::kRecall:
      OnRecall(*coh);
      break;
    case CohOp::kBackInval:
      OnBackInval(*coh);
      break;
    case CohOp::kNack:
      OnNack(*coh);
      break;
    default:
      assert(false && "unexpected message at coherent port");
  }
}

void CoherentPort::OnGrant(const CohMsg& msg) {
  auto it = pending_.find(msg.block);
  if (it == pending_.end()) {
    return;  // stale grant (e.g. arrived after our deadline failed the txn)
  }
  PendingTxn txn = std::move(it->second);
  pending_.erase(it);

  const bool exclusive = msg.op == CohOp::kDataM;
  if (txn.wants_m && !exclusive) {
    // Escalated to a write after the GetS left; upgrade now. The original
    // deadline stays armed so the whole transaction is bounded.
    auto [it2, inserted] = pending_.try_emplace(msg.block);
    (void)inserted;
    PendingTxn& up = it2->second;
    up.wants_m = true;
    up.started_at = txn.started_at;
    up.waiters = std::move(txn.waiters);
    up.deadline = txn.deadline;
    SendToHome(CohOp::kGetM, msg.block, /*with_data=*/false);
    return;
  }

  if (txn.deadline != kInvalidEventId) {
    engine_->Cancel(txn.deadline);
  }
  EvictIfNeeded(msg.block, exclusive);
  stats_.miss_latency_ns.Add(ToNs(engine_->Now() - txn.started_at));
  for (auto& w : txn.waiters) {
    if (w) {
      w(true);
    }
  }
}

void CoherentPort::EvictIfNeeded(std::uint64_t block, bool dirty) {
  if (auto ev = cache_.Insert(block, dirty); ev.has_value()) {
    if (ev->dirty) {
      SendToHome(CohOp::kPutM, ev->line_addr, /*with_data=*/true);
    } else {
      SendToHome(CohOp::kPutS, ev->line_addr, /*with_data=*/false);
    }
  }
}

void CoherentPort::OnInv(const CohMsg& msg) {
  ++stats_.invalidations_received;
  cache_.Invalidate(msg.block);
  auto resp = std::make_shared<CohMsg>();
  resp->op = CohOp::kInvAck;
  resp->block = msg.block;
  resp->requester = host_index_;
  dispatcher_->Send(home_->fabric_id(), kSvcCoherent,
                    static_cast<std::uint64_t>(CohOp::kInvAck), config_.ctrl_msg_bytes,
                    std::move(resp), Channel::kCache);
}

void CoherentPort::OnRecall(const CohMsg& msg) {
  ++stats_.recalls_received;
  auto resp = std::make_shared<CohMsg>();
  resp->op = CohOp::kRecallResp;
  resp->block = msg.block;
  resp->requester = host_index_;
  bool dirty = false;
  resp->was_present = cache_.Contains(msg.block);
  if (resp->was_present) {
    dirty = cache_.IsDirty(msg.block);
    if (msg.downgrade) {
      cache_.CleanLine(msg.block);
    } else {
      cache_.Invalidate(msg.block);
    }
  }
  resp->was_dirty = dirty;
  const std::uint32_t bytes = config_.ctrl_msg_bytes + (dirty ? config_.block_bytes : 0);
  dispatcher_->Send(home_->fabric_id(), kSvcCoherent,
                    static_cast<std::uint64_t>(CohOp::kRecallResp), bytes, std::move(resp),
                    Channel::kCache);
}

void CoherentPort::OnBackInval(const CohMsg& msg) {
  ++stats_.back_invals_received;
  auto resp = std::make_shared<CohMsg>();
  resp->op = CohOp::kBackInvalAck;
  resp->block = msg.block;
  resp->requester = host_index_;
  bool dirty = false;
  resp->was_present = cache_.Invalidate(msg.block, &dirty);
  resp->was_dirty = dirty;
  const std::uint32_t bytes = config_.ctrl_msg_bytes + (dirty ? config_.block_bytes : 0);
  dispatcher_->Send(home_->fabric_id(), kSvcCoherent,
                    static_cast<std::uint64_t>(CohOp::kBackInvalAck), bytes, std::move(resp),
                    Channel::kCache);
}

void CoherentPort::OnNack(const CohMsg& msg) {
  ++stats_.nacks_received;
  FailTxn(msg.block, /*drop_line=*/true);
}

void CoherentPort::OnTxnTimeout(std::uint64_t block) {
  ++stats_.txn_timeouts;
  FailTxn(block, /*drop_line=*/true);
}

void CoherentPort::FailTxn(std::uint64_t block, bool drop_line) {
  auto it = pending_.find(block);
  if (it == pending_.end()) {
    return;
  }
  PendingTxn txn = std::move(it->second);
  pending_.erase(it);
  if (txn.deadline != kInvalidEventId) {
    engine_->Cancel(txn.deadline);
  }
  if (drop_line) {
    // Conservatively drop any local copy: after a failed handshake we no
    // longer know whether the directory still counts us, and a stale line
    // must never satisfy a later read.
    cache_.Invalidate(block);
  }
  ++stats_.txn_failures;
  for (auto& w : txn.waiters) {
    if (w) {
      w(false);
    }
  }
}

// ---------------------------- CoherentDirectory ---------------------------

CoherentDirectory::CoherentDirectory(Engine* engine, const CoherentConfig& config,
                                     MessageDispatcher* dispatcher, MemoryExpander* expander,
                                     std::string name)
    : engine_(engine),
      config_(config),
      dispatcher_(dispatcher),
      expander_(expander),
      name_(std::move(name)) {
  assert(config_.max_tracked_blocks > 0 && config_.max_sharers > 0);
  dispatcher_->RegisterService(kSvcCoherent,
                               [this](const FabricMessage& msg) { HandleMessage(msg); });
  metrics_ = MetricGroup(&engine_->metrics(), "mem/coherent/dir/" + name_);
  stats_.BindTo(metrics_);
  audit_ = AuditScope(&engine_->audit(), "mem/coherent");
  // Every back-invalidation we ever sent is either acknowledged, written off
  // by a deadline, or still outstanding in some entry's bi_waiting set.
  audit_.AddCheck("back_inval_acks_conserved", [this]() -> std::string {
    const std::uint64_t accounted =
        stats_.back_inval_acks + stats_.back_inval_timeouts + BiOutstanding();
    if (stats_.back_invals_sent != accounted) {
      return "dir " + name_ + ": back_invals_sent=" + std::to_string(stats_.back_invals_sent) +
             " != acks+timeouts+outstanding=" + std::to_string(accounted);
    }
    return "";
  });
  // The whole point of the snoop filter: tracking is bounded.
  audit_.AddCheck("filter_bounded", [this]() -> std::string {
    if (blocks_.size() > config_.max_tracked_blocks) {
      return "dir " + name_ + " tracks " + std::to_string(blocks_.size()) + " blocks > cap " +
             std::to_string(config_.max_tracked_blocks);
    }
    return "";
  });
  // Every line resident in a port cache must be visible to the directory as
  // that port being the owner or a sharer of the block. The reverse is not
  // an invariant (eviction notices are in flight), but a port holding a line
  // the directory does not attribute to it is a coherence leak.
  audit_.AddCheck("sharers_conserved", [this]() -> std::string {
    for (const CoherentPort* p : ports_) {
      for (std::uint64_t line : p->cache_.ValidLines()) {
        auto it = blocks_.find(line);
        const int h = p->host_index_;
        const bool tracked =
            it != blocks_.end() &&
            (it->second.owner == h || std::find(it->second.sharers.begin(),
                                                it->second.sharers.end(),
                                                h) != it->second.sharers.end());
        if (!tracked) {
          return "port " + p->name_ + " holds block " + std::to_string(line) +
                 " unknown to directory " + name_;
        }
      }
    }
    return "";
  });
}

int CoherentDirectory::RegisterPort(CoherentPort* port) {
  ports_.push_back(port);
  return static_cast<int>(ports_.size()) - 1;
}

std::uint64_t CoherentDirectory::BiOutstanding() const {
  std::uint64_t n = 0;
  for (const auto& [block, e] : blocks_) {
    n += e.bi_waiting.size();
  }
  return n;
}

void CoherentDirectory::SendToPort(int host, CohOp op, std::uint64_t block, bool with_data,
                                   bool downgrade) {
  assert(host >= 0 && host < static_cast<int>(ports_.size()));
  auto msg = std::make_shared<CohMsg>();
  msg->op = op;
  msg->block = block;
  msg->downgrade = downgrade;
  const std::uint32_t bytes = config_.ctrl_msg_bytes + (with_data ? config_.block_bytes : 0);
  dispatcher_->Send(ports_[host]->fabric_id(), kSvcCoherent, static_cast<std::uint64_t>(op),
                    bytes, std::move(msg), Channel::kCache);
}

void CoherentDirectory::SendBackInval(Entry& e, std::uint64_t block, int host) {
  ++stats_.back_invals_sent;
  e.bi_waiting.insert(host);
  SendToPort(host, CohOp::kBackInval, block, /*with_data=*/false);
}

void CoherentDirectory::HandleMessage(const FabricMessage& msg) {
  const auto coh = std::static_pointer_cast<CohMsg>(msg.body);
  assert(coh != nullptr);
  engine_->Schedule(config_.directory_latency, [this, m = *coh] { Process(m); });
}

void CoherentDirectory::ArmDeadline(Entry& e, std::uint64_t block) {
  if (config_.ack_deadline > 0) {
    e.deadline = engine_->Schedule(config_.ack_deadline, [this, block] { OnDirTimeout(block); });
  }
}

void CoherentDirectory::RemoveSharer(Entry& e, int host) {
  e.sharers.erase(std::remove(e.sharers.begin(), e.sharers.end(), host), e.sharers.end());
  if (e.owner == host) {
    e.owner = -1;
  }
}

void CoherentDirectory::Process(const CohMsg& msg) {
  switch (msg.op) {
    case CohOp::kGetS:
    case CohOp::kGetM:
      Admit(msg);
      return;
    default:
      break;
  }

  auto it = blocks_.find(msg.block);
  if (it == blocks_.end()) {
    // A response for a block the filter already reclaimed (e.g. a Put* that
    // crossed a completed back-invalidation). Nothing to update: the port
    // already dropped the line, and the writeback data is stale by protocol
    // (the filter eviction collected the authoritative copy).
    ++stats_.stale_acks;
    return;
  }
  Entry& e = it->second;

  switch (msg.op) {
    case CohOp::kPutM: {
      ++stats_.putm;
      if (e.busy && e.recall_from == msg.requester && e.state == BlockState::kModified &&
          e.owner == msg.requester) {
        // Eviction crossed our Recall; treat it as the response.
        ++stats_.implicit_evict_acks;
        e.recall_from = -1;
        expander_->WindowAccess(msg.block, config_.block_bytes, /*is_write=*/true, nullptr);
        e.owner = -1;
        Grant(msg.block, e.active.requester, /*exclusive=*/e.active.op == CohOp::kGetM);
        return;
      }
      if (e.bi_waiting.count(msg.requester) != 0) {
        // Dirty eviction crossed a back-invalidation; writeback satisfies it.
        ++stats_.implicit_evict_acks;
        ++stats_.back_inval_acks;
        e.bi_waiting.erase(msg.requester);
        expander_->WindowAccess(msg.block, config_.block_bytes, /*is_write=*/true, nullptr);
        BiSatisfied(msg.block, msg.requester);
        return;
      }
      RemoveSharer(e, msg.requester);
      if (e.state == BlockState::kModified && e.owner < 0) {
        e.state = e.sharers.empty() ? BlockState::kUncached : BlockState::kShared;
      }
      if (e.state == BlockState::kShared && e.sharers.empty()) {
        e.state = BlockState::kUncached;
      }
      expander_->WindowAccess(msg.block, config_.block_bytes, /*is_write=*/true, nullptr);
      MaybeReclaim(msg.block);
      return;
    }

    case CohOp::kPutS: {
      ++stats_.puts;
      if (e.busy && e.inv_waiting.erase(msg.requester) != 0) {
        // Clean eviction crossed an Inv for the active GetM: counts as the
        // ack (the port's unconditional InvAck is later discarded as stale).
        ++stats_.implicit_evict_acks;
        RemoveSharer(e, msg.requester);
        if (e.inv_waiting.empty()) {
          Grant(msg.block, e.active.requester, /*exclusive=*/true);
        }
        return;
      }
      if (e.bi_waiting.count(msg.requester) != 0) {
        ++stats_.implicit_evict_acks;
        ++stats_.back_inval_acks;
        e.bi_waiting.erase(msg.requester);
        BiSatisfied(msg.block, msg.requester);
        return;
      }
      RemoveSharer(e, msg.requester);
      if (e.state == BlockState::kShared && e.sharers.empty()) {
        e.state = BlockState::kUncached;
      }
      MaybeReclaim(msg.block);
      return;
    }

    case CohOp::kInvAck: {
      if (!e.busy || e.inv_waiting.erase(msg.requester) == 0) {
        ++stats_.stale_acks;
        return;
      }
      RemoveSharer(e, msg.requester);
      if (e.inv_waiting.empty()) {
        Grant(msg.block, e.active.requester, /*exclusive=*/true);
      }
      return;
    }

    case CohOp::kRecallResp: {
      if (!e.busy || e.recall_from != msg.requester) {
        ++stats_.stale_acks;
        return;
      }
      e.recall_from = -1;
      const CohMsg active = e.active;
      if (msg.was_dirty) {
        expander_->WindowAccess(msg.block, config_.block_bytes, /*is_write=*/true, nullptr);
      }
      if (active.op == CohOp::kGetS) {
        if (msg.was_present && e.owner >= 0) {
          e.sharers.push_back(e.owner);  // old owner keeps an S copy
        }
        e.owner = -1;
        Grant(msg.block, active.requester, /*exclusive=*/false);
      } else {
        if (e.owner >= 0) {
          RemoveSharer(e, e.owner);
        }
        e.owner = -1;
        Grant(msg.block, active.requester, /*exclusive=*/true);
      }
      return;
    }

    case CohOp::kBackInvalAck: {
      if (e.bi_waiting.erase(msg.requester) == 0) {
        ++stats_.back_inval_acks_stale;
        return;
      }
      ++stats_.back_inval_acks;
      if (msg.was_dirty) {
        expander_->WindowAccess(msg.block, config_.block_bytes, /*is_write=*/true, nullptr);
      }
      BiSatisfied(msg.block, msg.requester);
      return;
    }

    default:
      assert(false && "unexpected message at coherent directory");
  }
}

void CoherentDirectory::Admit(const CohMsg& msg) {
  auto it = blocks_.find(msg.block);
  if (it == blocks_.end()) {
    // Slots reserved for released parked requests are not up for grabs.
    if (blocks_.size() + filter_released_ >= config_.max_tracked_blocks) {
      ++stats_.filter_parked;
      filter_wait_.push_back(msg);
      StartFilterEviction();
      return;
    }
    it = blocks_.emplace(msg.block, Entry{}).first;
  }
  Entry& e = it->second;
  e.lru = ++lru_clock_;
  if (e.busy || e.evicting) {
    ++stats_.queued_requests;
    e.pending.push_back(msg);
    return;
  }
  StartTxn(e, msg.block, msg);
}

void CoherentDirectory::StartTxn(Entry& e, std::uint64_t block, const CohMsg& msg) {
  e.busy = true;
  e.active = msg;
  ArmDeadline(e, block);
  if (msg.op == CohOp::kGetS) {
    ++stats_.gets;
    ServeGetS(e, block, msg);
  } else {
    ++stats_.getm;
    ServeGetM(e, block, msg);
  }
}

void CoherentDirectory::ServeGetS(Entry& e, std::uint64_t block, const CohMsg& msg) {
  if (e.state == BlockState::kModified) {
    if (e.owner == msg.requester) {
      // Re-request after a lost grant: the requester already owns it.
      Grant(block, msg.requester, /*exclusive=*/true);
      return;
    }
    ++stats_.recalls;
    e.recall_from = e.owner;
    SendToPort(e.owner, CohOp::kRecall, block, /*with_data=*/false, /*downgrade=*/true);
    return;
  }
  const bool already_sharer =
      std::find(e.sharers.begin(), e.sharers.end(), msg.requester) != e.sharers.end();
  if (!already_sharer && e.sharers.size() >= config_.max_sharers) {
    // Bounded sharer vector: recall the oldest sharer before admitting a
    // new one (CXL-style snoop-filter overflow).
    ++stats_.sharer_recalls;
    SendBackInval(e, block, e.sharers.front());
    return;  // completion continues at kBackInvalAck -> BiSatisfied
  }
  Grant(block, msg.requester, /*exclusive=*/false);
}

void CoherentDirectory::ServeGetM(Entry& e, std::uint64_t block, const CohMsg& msg) {
  switch (e.state) {
    case BlockState::kUncached:
      Grant(block, msg.requester, /*exclusive=*/true);
      return;
    case BlockState::kShared: {
      for (int s : e.sharers) {
        if (s != msg.requester) {
          e.inv_waiting.insert(s);
        }
      }
      // Fan out in host order, not in the order the sharers joined.
      for (int s : e.inv_waiting) {
        ++stats_.invalidations;
        SendToPort(s, CohOp::kInv, block, /*with_data=*/false);
      }
      if (e.inv_waiting.empty()) {
        Grant(block, msg.requester, /*exclusive=*/true);
      }
      return;
    }
    case BlockState::kModified:
      if (e.owner == msg.requester) {
        Grant(block, msg.requester, /*exclusive=*/true);
        return;
      }
      ++stats_.recalls;
      e.recall_from = e.owner;
      SendToPort(e.owner, CohOp::kRecall, block, /*with_data=*/false, /*downgrade=*/false);
      return;
  }
}

void CoherentDirectory::Grant(std::uint64_t block, int requester, bool exclusive) {
  expander_->WindowAccess(block, config_.block_bytes, /*is_write=*/false,
                          [this, block, requester, exclusive] {
                            auto it = blocks_.find(block);
                            assert(it != blocks_.end());
                            Entry& e = it->second;
                            if (exclusive) {
                              e.state = BlockState::kModified;
                              e.sharers.clear();
                              e.owner = requester;
                              SendToPort(requester, CohOp::kDataM, block, /*with_data=*/true);
                            } else {
                              e.state = BlockState::kShared;
                              if (std::find(e.sharers.begin(), e.sharers.end(), requester) ==
                                  e.sharers.end()) {
                                e.sharers.push_back(requester);
                              }
                              SendToPort(requester, CohOp::kData, block, /*with_data=*/true);
                            }
                            FinishTxn(e, block);
                          });
}

void CoherentDirectory::FinishTxn(Entry& e, std::uint64_t block) {
  e.busy = false;
  e.inv_waiting.clear();
  e.recall_from = -1;
  if (e.deadline != kInvalidEventId) {
    engine_->Cancel(e.deadline);
    e.deadline = kInvalidEventId;
  }
  if (!e.pending.empty()) {
    const CohMsg next = e.pending.front();
    e.pending.pop_front();
    engine_->Schedule(config_.directory_latency, [this, next] { Process(next); });
  } else {
    MaybeReclaim(block);
  }
  // A finished transaction may have made an entry evictable, or released a
  // parked request whose block was already tracked and so left its
  // reserved slot unused.
  PumpFilterWait();
}

void CoherentDirectory::MaybeReclaim(std::uint64_t block) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) {
    return;
  }
  const Entry& e = it->second;
  // Idle-uncached entries are erased so the bounded filter reuses the slot.
  if (!e.busy && !e.evicting && e.pending.empty() && e.bi_waiting.empty() &&
      e.state == BlockState::kUncached && e.sharers.empty() && e.owner < 0) {
    blocks_.erase(it);
    PumpFilterWait();
  }
}

void CoherentDirectory::BiSatisfied(std::uint64_t block, int responder) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) {
    return;
  }
  Entry& e = it->second;
  RemoveSharer(e, responder);
  if (!e.bi_waiting.empty()) {
    return;
  }
  if (e.evicting) {
    FinishEviction(block);
    return;
  }
  if (e.busy) {
    // Sharer-overflow recall inside a GetS: the slot is free now.
    Grant(block, e.active.requester, /*exclusive=*/false);
  }
}

void CoherentDirectory::StartFilterEviction() {
  if (evict_in_progress_) {
    return;
  }
  // Deterministic victim scan: least-recently-used idle entry (ordered map
  // breaks lru ties by block address, though lru values are unique anyway).
  auto victim = blocks_.end();
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    const Entry& e = it->second;
    if (e.busy || e.evicting || !e.pending.empty() || !e.bi_waiting.empty()) {
      continue;
    }
    if (victim == blocks_.end() || it->second.lru < victim->second.lru) {
      victim = it;
    }
  }
  if (victim == blocks_.end()) {
    return;  // everything in flight; FinishTxn retries via PumpFilterWait
  }
  const std::uint64_t block = victim->first;
  Entry& e = victim->second;
  if (e.sharers.empty() && e.owner < 0) {
    blocks_.erase(victim);
    ++stats_.filter_evictions;
    PumpFilterWait();
    return;
  }
  e.evicting = true;
  evict_in_progress_ = true;
  ArmDeadline(e, block);
  if (e.owner >= 0) {
    SendBackInval(e, block, e.owner);
  }
  for (int s : e.sharers) {
    if (s != e.owner) {
      SendBackInval(e, block, s);
    }
  }
}

void CoherentDirectory::FinishEviction(std::uint64_t block) {
  auto it = blocks_.find(block);
  assert(it != blocks_.end());
  Entry& e = it->second;
  e.evicting = false;
  evict_in_progress_ = false;
  if (e.deadline != kInvalidEventId) {
    engine_->Cancel(e.deadline);
    e.deadline = kInvalidEventId;
  }
  e.state = BlockState::kUncached;
  ++stats_.filter_evictions;
  if (e.pending.empty()) {
    blocks_.erase(it);
  } else {
    // New requests arrived for the block mid-eviction; keep the (now empty)
    // entry and serve them.
    const CohMsg next = e.pending.front();
    e.pending.pop_front();
    engine_->Schedule(config_.directory_latency, [this, next] { Process(next); });
  }
  PumpFilterWait();
}

void CoherentDirectory::PumpFilterWait() {
  // Release one parked request per free slot, counting the ones already on
  // their way back to Admit. A released request whose block turns out to be
  // tracked uses no slot; the next FinishTxn pumps again.
  while (!filter_wait_.empty() &&
         blocks_.size() + filter_released_ < config_.max_tracked_blocks) {
    const CohMsg next = filter_wait_.front();
    filter_wait_.pop_front();
    ++filter_released_;
    engine_->Schedule(config_.directory_latency, [this, next] {
      --filter_released_;
      Process(next);
    });
  }
  if (!filter_wait_.empty()) {
    StartFilterEviction();
  }
}

void CoherentDirectory::OnDirTimeout(std::uint64_t block) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) {
    return;
  }
  Entry& e = it->second;
  e.deadline = kInvalidEventId;
  // Ports that never answered stay tracked as sharers: we cannot prove they
  // dropped the line, and granting anyway could expose a stale copy. They
  // are re-invalidated if they come back; if they are dead, requests for
  // this block keep failing terminally — the safe outcome.
  stats_.back_inval_timeouts += e.bi_waiting.size();
  e.bi_waiting.clear();
  e.inv_waiting.clear();
  e.recall_from = -1;
  if (e.evicting) {
    e.evicting = false;
    evict_in_progress_ = false;
    // The slot could not be freed; fail every parked request terminally
    // rather than letting it wait forever.
    for (const CohMsg& parked : filter_wait_) {
      ++stats_.nacks_sent;
      SendToPort(parked.requester, CohOp::kNack, parked.block, /*with_data=*/false);
    }
    filter_wait_.clear();
    if (!e.pending.empty()) {
      const CohMsg next = e.pending.front();
      e.pending.pop_front();
      engine_->Schedule(config_.directory_latency, [this, next] { Process(next); });
    }
    return;
  }
  if (e.busy) {
    ++stats_.txn_aborts;
    ++stats_.nacks_sent;
    SendToPort(e.active.requester, CohOp::kNack, block, /*with_data=*/false);
    FinishTxn(e, block);
  }
}

CoherentDirectory::BlockState CoherentDirectory::StateOf(std::uint64_t block) const {
  auto it = blocks_.find(block);
  return it == blocks_.end() ? BlockState::kUncached : it->second.state;
}

std::size_t CoherentDirectory::SharerCount(std::uint64_t block) const {
  auto it = blocks_.find(block);
  return it == blocks_.end() ? 0 : it->second.sharers.size();
}

int CoherentDirectory::OwnerOf(std::uint64_t block) const {
  auto it = blocks_.find(block);
  return it == blocks_.end() ? -1 : it->second.owner;
}

// ------------------------------ CoherentWindow ----------------------------

std::uint64_t CoherentWindow::Allocate(std::uint64_t bytes) {
  const std::uint64_t block = block_bytes();
  const std::uint64_t rounded = (bytes + block - 1) / block * block;
  assert(cursor_ + rounded <= size_ && "coherent window exhausted");
  const std::uint64_t addr = base_ + cursor_;
  cursor_ += rounded;
  return addr;
}

}  // namespace unifab
