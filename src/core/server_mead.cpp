#include "core/server_mead.h"

#include "common/log.h"

namespace mead::core {

ServerMead::ServerMead(net::ProcessPtr proc, MeadConfig cfg)
    : proc_(std::move(proc)), cfg_(std::move(cfg)), inner_(proc_->api()),
      launch_requests_(
          proc_->sim().obs().metrics().counter("server.launch_requests")),
      migrations_(proc_->sim().obs().metrics().counter("server.migrations")),
      rejuvenations_(
          proc_->sim().obs().metrics().counter("server.rejuvenations")),
      failover_piggybacks_(
          proc_->sim().obs().metrics().counter("server.failover_piggybacks")) {
  gc_ = std::make_unique<gc::GcClient>(*proc_, cfg_.member, cfg_.daemon);
  if (cfg_.state.enabled) {
    app_state_ = std::make_unique<state::AppState>(cfg_.state.keys);
    ckpt_store_ = std::make_unique<state::CheckpointStore>();
    msg_log_ = std::make_unique<state::MessageLog>(cfg_.state.log_cap);
    auto& metrics = proc_->sim().obs().metrics();
    ckpt_bytes_ = &metrics.counter("state.ckpt.bytes");
    ckpt_deltas_ = &metrics.counter("state.ckpt.deltas");
    replay_msgs_ = &metrics.counter("state.replay.msgs");
    restore_ms_ = &metrics.counter("state.restore_ms");
    digest_mismatches_ = &metrics.counter("state.digest_mismatch");
  }
}

ServerMead::~ServerMead() = default;

// ------------------------------------------------------------- lifecycle

sim::Task<bool> ServerMead::start() {
  const bool connected = co_await gc_->connect();
  if (!connected) co_return false;
  (void)co_await gc_->join(replica_group(cfg_.service));
  (void)co_await gc_->join(control_group(cfg_.service));
  if (cfg_.state.enabled) {
    // Stateful path: restore from a live peer BEFORE announcing — clients
    // must never be pointed at a replica whose state is behind the group.
    (void)co_await gc_->join(ckpt_group(cfg_.service));
    restoring_ = true;
    restore_base_seen_ = false;
    restore_begin_ = proc_->sim().now();
    await_nonce_ = make_nonce();
    proc_->sim().obs().emit(obs::EventKind::kRestoreBegin, cfg_.member,
                            cfg_.service, 0);
    proc_->sim().spawn(gc_pump());
    proc_->sim().spawn(restore_watchdog());
    (void)co_await gc_->multicast(
        ckpt_group(cfg_.service),
        encode_ctrl(CkptRequest{cfg_.member, await_nonce_, 0}));
    if (cfg_.style != ReplicationStyle::kQuorum) {
      // Warm-passive / fanout: the restore gates the announce — clients
      // must never be pointed at a replica whose state is behind.
      while (restoring_) {
        const bool alive = co_await proc_->sleep(microseconds(250));
        if (!alive) co_return false;
      }
    }
    // kQuorum: announce immediately. The RM counts us for the write quorum
    // right away but keeps us flagged catching_up (reads excluded) until
    // the restore's ordered kCatchupDone — the group serves at full read
    // degree minus one while we replay, instead of blocking on us.
    if (self_ior_.valid()) {
      (void)co_await gc_->multicast(
          replica_group(cfg_.service),
          encode_ctrl(Announce{cfg_.member, orb_endpoint_, self_ior_}));
    }
    if (cfg_.state_sync_interval > Duration{0}) {
      proc_->sim().spawn(state_sync_loop());
    }
    proc_->sim().spawn(checkpoint_loop());
    if (cfg_.migration.enabled()) proc_->sim().spawn(usage_report_loop());
    co_return true;
  }
  // Announce our reference so every FT manager can forward clients to us.
  if (self_ior_.valid()) {
    (void)co_await gc_->multicast(
        replica_group(cfg_.service),
        encode_ctrl(Announce{cfg_.member, orb_endpoint_, self_ior_}));
  }
  proc_->sim().spawn(gc_pump());
  if (cfg_.state_sync_interval > Duration{0}) {
    proc_->sim().spawn(state_sync_loop());
  }
  if (cfg_.migration.enabled()) proc_->sim().spawn(usage_report_loop());
  co_return true;
}

sim::Task<void> ServerMead::gc_pump() {
  for (;;) {
    auto ev = co_await gc_->next_event();
    if (!ev || !ev.value()) co_return;  // connection lost or shutting down
    gc::Event& event = *ev.value();
    if (event.kind == gc::Event::Kind::kView &&
        event.group == replica_group(cfg_.service)) {
      registry_.on_view(event.view);
      // "the first replica listed ... sends a message that synchronizes the
      // listing of active servers across the group" (§4.3).
      if (registry_.is_first(cfg_.member)) {
        proc_->sim().spawn(send_listing());
        // Membership has settled and we are the agreed-upon primary:
        // answer queries that raced the membership change (§5.2.1).
        for (auto& q : pending_queries_) {
          if (proc_->sim().now() < q.expires) {
            proc_->sim().spawn(
                answer_primary_query(std::move(q.reply_group), q.nonce));
          }
        }
        pending_queries_.clear();
      } else {
        std::erase_if(pending_queries_, [&](const PendingQuery& q) {
          return proc_->sim().now() >= q.expires;
        });
      }
      continue;
    }
    if (event.kind == gc::Event::Kind::kMessage) handle_ctrl(event);
  }
}

void ServerMead::handle_ctrl(const gc::Event& ev) {
  // Our own checkpoint pushes come back through the total order; only the
  // mirrors use them, so skip the decode (a base is hundreds of KB).
  if (peek_ctrl_kind(ev.payload) == CtrlKind::kCkptDelta &&
      ev.sender == cfg_.member) {
    return;
  }
  auto ctrl = decode_ctrl(ev.payload);
  if (!ctrl) return;
  // Kinds not handled here are the Recovery Manager's business (launch
  // requests, usage reports, nacks, catch-up reports, RM-group frames) or
  // published for clients (primary answers, read sets).
  if (const auto* m = std::get_if<Announce>(&*ctrl)) {
    registry_.on_announce(*m);
  } else if (const auto* m = std::get_if<Listing>(&*ctrl)) {
    registry_.on_listing(*m);
  } else if (const auto* q = std::get_if<PrimaryQuery>(&*ctrl)) {
    // Only the first listed replica answers (§4.2). If the failed replica
    // is still listed first (membership not yet settled), park the query:
    // whichever replica the next view promotes will answer it — if that
    // happens within the client's timeout window.
    if (registry_.is_first(cfg_.member)) {
      proc_->sim().spawn(answer_primary_query(q->reply_group, q->nonce));
    } else {
      pending_queries_.emplace_back(q->reply_group, q->nonce,
                                    proc_->sim().now() + milliseconds(20));
    }
  } else if (const auto* st = std::get_if<StateTransfer>(&*ctrl)) {
    if (st->member != cfg_.member && set_state_ &&
        st->version > state_version_) {
      state_version_ = st->version;
      set_state_(st->state);
      ++stats_.state_applied;
    }
  } else if (const auto* m = std::get_if<Retire>(&*ctrl)) {
    // The rebalance pass migrated this group onto a new host and named
    // us the victim: drain in-flight work, then exit gracefully — the
    // replacement is already announcing on the joined node.
    if (m->member == cfg_.member && proc_->alive()) {
      proc_->sim().obs().metrics().counter("server.retires").add();
      proc_->sim().spawn(rejuvenate_after_drain());
    }
  } else if (const auto* req = std::get_if<CkptRequest>(&*ctrl)) {
    handle_ckpt_request(*req);
  } else if (auto* d = std::get_if<CkptDelta>(&*ctrl)) {
    if (app_state_ && d->member != cfg_.member) {
      handle_ckpt_delta(std::move(*d));
    }
  } else if (const auto* lr = std::get_if<LogReplay>(&*ctrl)) {
    handle_log_replay(*lr);
  } else if (const auto* h = std::get_if<Handoff>(&*ctrl)) {
    handle_handoff(*h);
  } else if (const auto* rc = std::get_if<ReplyCache>(&*ctrl)) {
    if (app_state_ == nullptr || cfg_.state.dedup_cap == 0 ||
        rc->member == cfg_.member) {
      return;
    }
    // Periodic pushes install on mirrors only (the primary is the
    // source); directed ones only on the requester that asked.
    const bool take = rc->nonce == 0 ? !registry_.is_first(cfg_.member)
                                     : rc->nonce == await_nonce_;
    if (take) dedup_install(rc->entries);
  }
}

void ServerMead::handle_ckpt_request(const CkptRequest& req) {
  if (app_state_ == nullptr || restoring_ || req.nonce == 0 ||
      req.member == cfg_.member) {
    return;
  }
  if (cfg_.state.pull_restore && !registry_.find(req.member)) {
    // Pull model, and the requester is not announced (a restoring
    // starter, not a live mirror resyncing): every announced peer
    // answers the stripe of the chain its listing rank owns, so the
    // requester pulls from all survivors concurrently.
    std::size_t rank = 0;
    std::size_t ranks = 0;
    bool self_listed = false;
    for (const auto& rec : registry_.listed()) {
      if (rec.member == cfg_.member) {
        self_listed = true;
        rank = ranks;
      }
      ++ranks;
    }
    if (self_listed) {
      ++stats_.pull_answers;
      proc_->sim().spawn(answer_restore(req.member, req.nonce,
                                        req.have_epoch, rank, ranks));
    }
    return;
  }
  // Historical single-answerer path: only the announced primary
  // answers — a restoring replica is not yet announced, so never
  // first.
  if (registry_.is_first(cfg_.member)) {
    proc_->sim().spawn(
        answer_restore(req.member, req.nonce, req.have_epoch, 0, 1));
  }
}

void ServerMead::handle_log_replay(const LogReplay& lr) {
  if (!app_state_ || lr.nonce == 0 || lr.nonce != await_nonce_) return;
  if (!restoring_) {
    await_nonce_ = 0;  // live-mirror resync stream complete
  } else if (cfg_.state.pull_restore) {
    // Stripes from other answerers may still be in flight behind the
    // primary's closing replay: stash it until the delta chain has
    // caught up to the replay's start.
    pull_replay_ = lr;
    try_pull_replay();
  } else {
    const std::int64_t replayed =
        state::MessageLog::replay(lr.entries, lr.digest, *app_state_);
    proc_->sim().spawn(finish_replay(replayed));
  }
}

void ServerMead::handle_handoff(const Handoff& h) {
  if (h.victim != cfg_.member || !proc_->alive()) return;
  if (migrating_) return;  // duplicate frame / reactive path already won
  migrate_target_ = registry_.find(h.successor);
  if (!migrate_target_) {
    // The successor's announce has not reached our registry yet (it must
    // exist group-wide: the RM only orders the handoff after it announced).
    migrate_target_ = registry_.next_after(cfg_.member);
  }
  if (!migrate_target_) return;
  migrating_ = true;
  ++stats_.handoffs;
  if (handoff_ms_ == nullptr) {
    handoff_ms_ = &proc_->sim().obs().metrics().counter("mead.handoff_ms");
  }
  // The planned-rotation unavailability window is exactly the drain: the
  // successor is pre-warmed and announced, so no launch or restore sits on
  // the client-visible path (the bench's flat-vs-growing comparison).
  handoff_ms_->add(static_cast<std::uint64_t>(cfg_.drain_timeout.ms() + 0.5));
  proc_->sim().obs().emit(obs::EventKind::kHandoff, cfg_.member,
                          migrate_target_->member, usage());
  if (app_state_ && !restoring_ && registry_.is_first(cfg_.member)) {
    // Transfer the log tail: a final checkpoint (with the reply cache
    // riding along) lands before the successor takes over as primary.
    proc_->sim().spawn(push_checkpoint());
  }
  proc_->sim().spawn(rejuvenate_after_drain());
}

sim::Task<void> ServerMead::multicast_task(std::string group, Bytes payload) {
  (void)co_await gc_->multicast(std::move(group), std::move(payload));
}

sim::Task<void> ServerMead::usage_report_loop() {
  for (;;) {
    const bool alive = co_await proc_->sleep(cfg_.migration.report_interval);
    if (!alive) co_return;
    if (migrating_ || account_ == nullptr) continue;
    // Only the serving primary reports: rotation is about moving the
    // member that is actually accumulating per-request leakage.
    if (!registry_.is_first(cfg_.member)) continue;
    const auto at_ms =
        static_cast<std::uint64_t>(proc_->sim().now().ns() / 1'000'000);
    (void)co_await gc_->multicast(
        control_group(cfg_.service),
        encode_ctrl(UsageReport{cfg_.member, usage(), at_ms}));
  }
}

// ------------------------------------------------- reply deduplication

void ServerMead::note_request_token(ClientConn& conn,
                                    const giop::RequestMessage& req) {
  // The dedup token is the trailing (client_id, seq) pair clients append
  // to the args encapsulation; a bare request carries none.
  if (req.args.size() != 16) return;
  giop::CdrReader r(req.args, req.order);
  auto client_id = r.read_u64();
  auto seq = r.read_u64();
  if (!client_id || !seq) return;
  conn.pending_tokens.emplace_back(*client_id, *seq);
}

void ServerMead::dedup_insert(std::pair<std::uint64_t, std::uint64_t> token) {
  if (!dedup_set_.insert(token).second) return;
  dedup_fifo_.push_back(token);
  while (dedup_fifo_.size() > cfg_.state.dedup_cap) {
    dedup_set_.erase(dedup_fifo_.front());
    dedup_fifo_.pop_front();
  }
}

void ServerMead::dedup_install(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& entries) {
  dedup_fifo_.clear();
  dedup_set_.clear();
  for (const auto& t : entries) dedup_insert(t);
}

Bytes ServerMead::reply_cache_wire(std::uint64_t nonce) const {
  ReplyCache rc;
  rc.member = cfg_.member;
  rc.nonce = nonce;
  rc.entries.assign(dedup_fifo_.begin(), dedup_fifo_.end());
  return encode_ctrl(rc);
}

sim::Task<void> ServerMead::answer_primary_query(std::string reply_group,
                                                 std::uint64_t nonce) {
  ++stats_.primary_answers;
  (void)co_await gc_->multicast(
      std::move(reply_group),
      encode_ctrl(PrimaryAnswer{cfg_.member, orb_endpoint_, nonce}));
}

sim::Task<void> ServerMead::send_listing() {
  Listing listing;
  for (auto& rec : registry_.listed()) {
    listing.entries.push_back(Announce{rec.member, rec.endpoint, rec.ior});
  }
  // Always include ourselves (our own announce may still be in flight).
  if (self_ior_.valid() && !registry_.find(cfg_.member)) {
    listing.entries.push_back(Announce{cfg_.member, orb_endpoint_, self_ior_});
  }
  if (listing.entries.empty()) co_return;
  (void)co_await gc_->multicast(replica_group(cfg_.service),
                                encode_ctrl(listing));
}

sim::Task<void> ServerMead::state_sync_loop() {
  for (;;) {
    const bool alive = co_await proc_->sleep(cfg_.state_sync_interval);
    if (!alive) co_return;
    if (!get_state_ || !registry_.is_first(cfg_.member)) continue;
    ++state_version_;
    ++stats_.state_pushes;
    (void)co_await gc_->multicast(
        replica_group(cfg_.service),
        encode_ctrl(StateTransfer{cfg_.member, state_version_, get_state_()}));
  }
}

// ---------------------------------------- stateful recovery pipeline

std::uint64_t ServerMead::make_nonce() {
  // FNV-1a of the member name mixed with a local counter: unique across
  // requesters and across retries, deterministic per run.
  std::uint64_t h = 1469598103934665603ULL;
  for (char ch : cfg_.member) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= 1099511628211ULL;
  }
  const std::uint64_t n = state::mix64(h ^ ++next_nonce_);
  return n == 0 ? 1 : n;
}

Bytes ServerMead::ckpt_wire(const state::Checkpoint& c,
                            std::uint64_t nonce) const {
  return encode_ckpt_delta(cfg_.member, nonce, cfg_.state.value_pad, c);
}

sim::Task<void> ServerMead::checkpoint_loop() {
  for (;;) {
    const bool alive = co_await proc_->sleep(cfg_.state.checkpoint_interval);
    if (!alive) co_return;
    if (restoring_ || !registry_.is_first(cfg_.member)) continue;
    if (ckpt_store_->has_base() &&
        app_state_->applied() == ckpt_store_->applied()) {
      continue;  // no new ops since the last checkpoint
    }
    co_await push_checkpoint();
  }
}

sim::Task<void> ServerMead::push_checkpoint() {
  if (app_state_ == nullptr || restoring_ || ckpt_push_pending_) co_return;
  ckpt_push_pending_ = true;
  const state::Checkpoint c = ckpt_store_->take(*app_state_);
  // Truncation contract: the log only ever covers ops newer than the
  // latest checkpoint.
  msg_log_->truncate_through(c.applied);
  ++stats_.ckpt_taken;
  if (c.is_base) ++stats_.bases_sent;
  ckpt_deltas_->add();
  Bytes frame = ckpt_wire(c, 0);
  ckpt_bytes_->add(frame.size());
  proc_->sim().obs().emit(obs::EventKind::kCkptTaken, cfg_.member,
                          c.is_base ? "base" : "delta",
                          static_cast<double>(c.epoch));
  (void)co_await gc_->multicast(ckpt_group(cfg_.service), std::move(frame));
  if (cfg_.state.dedup_cap > 0 && !dedup_fifo_.empty()) {
    // The reply cache truncates with the checkpoint cycle: whatever the
    // FIFO holds now is exactly what a successor needs to keep suppressing.
    (void)co_await gc_->multicast(ckpt_group(cfg_.service),
                                  reply_cache_wire(0));
  }
  ckpt_push_pending_ = false;
}

sim::Task<void> ServerMead::restore_watchdog() {
  bool alive = co_await proc_->sleep(cfg_.state.restore_grace);
  if (!alive || !restoring_) co_return;
  if (!restore_base_seen_) {
    // No live peer sent a base within the grace window: we are the first
    // replica of a cold group — start fresh (not counted as a restore).
    finish_restore(/*restored=*/false, 0);
    co_return;
  }
  alive = co_await proc_->sleep(cfg_.state.restore_deadline);
  if (!alive || !restoring_) co_return;
  // Hard deadline: the installed prefix is still consistent (every applied
  // checkpoint chained), so announce with what we have.
  finish_restore(/*restored=*/true,
                 static_cast<double>(app_state_->applied()));
}

void ServerMead::drain_pull_pending() {
  // Re-apply buffered stripes smallest-epoch-first: each application may
  // unblock the next.
  while (!pull_pending_.empty()) {
    auto it = pull_pending_.begin();
    const bool is_base = it->second.is_base;
    switch (ckpt_store_->apply(std::move(it->second), *app_state_)) {
      case state::CheckpointStore::Apply::kApplied:
        ++stats_.ckpt_applied;
        if (is_base) restore_base_seen_ = true;
        pull_pending_.erase(it);
        continue;
      case state::CheckpointStore::Apply::kStale:
        pull_pending_.erase(it);
        continue;
      case state::CheckpointStore::Apply::kGap:
        return;  // still missing the predecessor — keep waiting
      case state::CheckpointStore::Apply::kDigestMismatch:
      case state::CheckpointStore::Apply::kMalformed:
        pull_pending_.erase(it);
        return;
    }
  }
}

void ServerMead::try_pull_replay() {
  if (!restoring_ || !pull_replay_) return;
  const LogReplay& lr = *pull_replay_;
  // The replay is runnable once the installed chain reaches its start:
  // an empty replay must match `applied` exactly, a non-empty one must
  // begin at the next op.
  const bool ready = lr.entries.empty()
                         ? app_state_->applied() == lr.applied
                         : lr.entries.front() == app_state_->applied() + 1;
  if (!ready) return;
  const std::int64_t replayed =
      state::MessageLog::replay(lr.entries, lr.digest, *app_state_);
  pull_replay_.reset();
  proc_->sim().spawn(finish_replay(replayed));
}

void ServerMead::finish_restore(bool restored, double ops) {
  if (!restoring_) return;
  restoring_ = false;
  await_nonce_ = 0;
  pull_pending_.clear();
  pull_replay_.reset();
  const double ms = (proc_->sim().now() - restore_begin_).ms();
  stats_.last_restore_ms = ms;
  if (restored) {
    ++stats_.restores;
    restore_ms_->add(static_cast<std::uint64_t>(ms + 0.5));
  }
  proc_->sim().obs().emit(obs::EventKind::kRestoreEnd, cfg_.member,
                          restored ? "restored" : "fresh", ops);
  if (cfg_.style == ReplicationStyle::kQuorum) {
    // We announced before restoring (serving writes, excluded from reads);
    // the ordered kCatchupDone readmits us to the read quorum.
    proc_->sim().spawn(multicast_task(
        ckpt_group(cfg_.service),
        encode_ctrl(CatchupDone{cfg_.service, cfg_.member})));
  }
}

sim::Task<void> ServerMead::finish_replay(std::int64_t replayed) {
  const std::int64_t n = replayed < 0 ? 0 : replayed;
  if (n > 0) {
    // Replay costs virtual CPU per op — the checkpoint-interval axis of
    // the restore-time bench.
    const bool alive =
        co_await proc_->sleep(cfg_.state.replay_op_cost * n);
    if (!alive) co_return;
  }
  if (!restoring_) co_return;  // the watchdog deadline fired first
  if (replayed < 0) digest_mismatches_->add();
  stats_.replayed_msgs += static_cast<std::uint64_t>(n);
  replay_msgs_->add(static_cast<std::uint64_t>(n));
  finish_restore(/*restored=*/true,
                 static_cast<double>(app_state_->applied()));
}

sim::Task<void> ServerMead::answer_restore(std::string requester,
                                           std::uint64_t nonce,
                                           std::uint64_t have_epoch,
                                           std::size_t rank,
                                           std::size_t ranks) {
  if (app_state_ == nullptr) co_return;
  LogLine(proc_->sim().log(), LogLevel::kDebug, "mead")
      << cfg_.member << " answering restore for " << requester << " (stripe "
      << rank << "/" << ranks << ")";
  if (rank == 0 && !ckpt_store_->has_base()) co_await push_checkpoint();
  // Encode the whole stripe before the first multicast suspends us: the
  // store may compact underneath the multicasts, and the frames pin the
  // chain as it is now without copying it. A live mirror that hit a gap
  // gets only the epochs after the one it holds, when we still have them.
  std::vector<Bytes> frames;
  for (const auto& c : ckpt_store_->missing_after(have_epoch)) {
    // Stripe ownership: the base (and everything, when solo) belongs to
    // rank 0; delta epoch e belongs to rank e % ranks.
    const bool mine = c.is_base ? rank == 0
                                : (ranks <= 1 || c.epoch % ranks == rank);
    if (!mine) continue;
    frames.push_back(ckpt_wire(c, nonce));
    if (c.is_base) ++stats_.bases_sent;
  }
  for (Bytes& frame : frames) {
    ckpt_bytes_->add(frame.size());
    (void)co_await gc_->multicast(ckpt_group(cfg_.service), std::move(frame));
  }
  if (rank != 0) co_return;  // only the primary closes with the log replay
  if (cfg_.state.dedup_cap > 0 && !dedup_fifo_.empty()) {
    (void)co_await gc_->multicast(ckpt_group(cfg_.service),
                                  reply_cache_wire(nonce));
  }
  LogReplay lr;
  lr.member = cfg_.member;
  lr.nonce = nonce;
  lr.applied = app_state_->applied();
  lr.digest = app_state_->digest();
  lr.entries = msg_log_->entries();
  (void)co_await gc_->multicast(ckpt_group(cfg_.service),
                                encode_ctrl(lr));
}

sim::Task<void> ServerMead::request_resync() {
  // A live mirror fell off the delta chain (dropped frame under a
  // partition, or joined after the base): ask for a directed re-send of
  // the epochs after the one we hold. One request is outstanding at a
  // time, but its answer is lost when the primary dies or rotates out
  // before its closing LogReplay (or is still listed first, dead, when
  // the request is ordered), so a gap that outlives restore_deadline
  // asks again.
  if (restoring_) co_return;
  const TimePoint now = proc_->sim().now();
  if (await_nonce_ != 0 && now - resync_sent_ < cfg_.state.restore_deadline) {
    co_return;
  }
  await_nonce_ = make_nonce();
  resync_sent_ = now;
  ++stats_.resyncs;
  (void)co_await gc_->multicast(
      ckpt_group(cfg_.service),
      encode_ctrl(CkptRequest{cfg_.member, await_nonce_,
                              ckpt_store_->last_epoch()}));
}

void ServerMead::handle_ckpt_delta(CkptDelta&& d) {
  // The decoded checkpoint moves into the chain (apply leaves it intact
  // unless it was applied).
  state::Checkpoint& c = d.checkpoint;
  if (restoring_) {
    // Only the directed stream we asked for; periodic pushes would
    // interleave mid-chain and always gap.
    if (d.nonce == 0 || d.nonce != await_nonce_) return;
    const bool is_base = c.is_base;
    switch (ckpt_store_->apply(std::move(c), *app_state_)) {
      case state::CheckpointStore::Apply::kApplied:
        ++stats_.ckpt_applied;
        if (is_base) restore_base_seen_ = true;
        if (cfg_.state.pull_restore) {
          drain_pull_pending();
          try_pull_replay();
        }
        break;
      case state::CheckpointStore::Apply::kGap:
        // Pull mode: concurrent answerers interleave their stripes
        // freely, so an epoch may land before its predecessor — buffer
        // it and re-apply once the chain grows underneath it.
        if (cfg_.state.pull_restore && pull_pending_.size() < 64) {
          pull_pending_.emplace(c.epoch, std::move(c));
        }
        break;
      case state::CheckpointStore::Apply::kStale:
      case state::CheckpointStore::Apply::kDigestMismatch:
      case state::CheckpointStore::Apply::kMalformed:
        break;
    }
    return;
  }
  if (d.nonce != 0 && d.nonce != await_nonce_) return;
  if (registry_.is_first(cfg_.member)) return;  // the primary is the source
  switch (ckpt_store_->apply(std::move(c), *app_state_)) {
    case state::CheckpointStore::Apply::kApplied:
      ++stats_.ckpt_applied;
      break;
    case state::CheckpointStore::Apply::kStale:
    case state::CheckpointStore::Apply::kMalformed:
      break;
    case state::CheckpointStore::Apply::kGap:
      if (d.nonce == 0) proc_->sim().spawn(request_resync());
      break;
    case state::CheckpointStore::Apply::kDigestMismatch:
      // Cross-verification failed: our mirror diverged — resync from the
      // authoritative chain.
      digest_mismatches_->add();
      if (d.nonce == 0) proc_->sim().spawn(request_resync());
      break;
  }
}

// --------------------------------------------------- proactive triggering

void ServerMead::check_thresholds() {
  const double used = usage();
  // NEEDS_ADDRESSING is "a proactive recovery scheme with insufficient
  // advance warning" (5.2.1): the server takes no proactive action and is
  // left to crash; the client-side interceptor masks the failure.
  if (cfg_.scheme != RecoveryScheme::kLocationForward &&
      cfg_.scheme != RecoveryScheme::kMeadMessage) {
    return;
  }

  bool trigger_launch;
  bool trigger_migrate;
  if (cfg_.thresholds.policy == ThresholdPolicy::kAdaptive) {
    // Future-work extension (6): predict time-to-exhaustion from the usage
    // trend and act only when recovery would no longer fit — the paper's
    // "ideal scenario" of delaying recovery to the last safe moment.
    predictor_.observe(proc_->sim().now(), used);
    auto eta = predictor_.time_to_reach(1.0, proc_->sim().now());
    trigger_launch = eta && *eta < cfg_.thresholds.adaptive_launch_lead;
    trigger_migrate = eta && *eta < cfg_.thresholds.adaptive_migrate_lead;
  } else {
    trigger_launch = used >= cfg_.thresholds.launch_fraction;
    trigger_migrate = used >= cfg_.thresholds.migrate_fraction;
  }

  auto& obs = proc_->sim().obs();
  if (!launch_requested_ && trigger_launch) {
    launch_requested_ = true;
    ++stats_.launch_requests;
    launch_requests_.add();
    obs.emit(obs::EventKind::kThresholdCrossed, cfg_.member, "T1", used);
    obs.emit(obs::EventKind::kLaunchRequested, cfg_.member, "", used);
    proc_->sim().spawn(send_launch_request(used));
  }
  if (!migrating_ && trigger_migrate) {
    migrate_target_ = registry_.next_after(cfg_.member);
    if (migrate_target_) {
      migrating_ = true;
      migrations_.add();
      obs.emit(obs::EventKind::kThresholdCrossed, cfg_.member, "T2", used);
      obs.emit(obs::EventKind::kMigrateBegin, cfg_.member,
               migrate_target_->member, used);
      proc_->sim().spawn(rejuvenate_after_drain());
    }
    // No fail-over target (sole replica): keep serving; retry on the next
    // reply — rejuvenating now would cause an outage instead of avoiding
    // one.
  }
}

sim::Task<void> ServerMead::send_launch_request(double usage_now) {
  (void)co_await gc_->multicast(
      control_group(cfg_.service),
      encode_ctrl(LaunchRequest{cfg_.member, usage_now}));
}

sim::Task<void> ServerMead::rejuvenate_after_drain() {
  // Quiescence: give in-flight redirects time to reach clients, then exit
  // gracefully. The §3.2 lesson: restarting without handing clients off
  // first causes the client-side latency spikes the paper set out to kill.
  const bool alive = co_await proc_->sleep(cfg_.drain_timeout);
  if (!alive) co_return;
  LogLine(proc_->sim().log(), LogLevel::kInfo, "mead")
      << cfg_.member << " rejuvenating (usage " << usage() << ")";
  auto& obs = proc_->sim().obs();
  rejuvenations_.add();
  obs.emit(obs::EventKind::kRejuvenate, cfg_.member, "", usage());
  proc_->exit();
}

// ------------------------------------------------------------ SocketApi

net::Result<int> ServerMead::listen(std::uint16_t port) {
  auto fd = inner_.listen(port);
  if (fd && orb_listen_fd_ < 0) {
    // First listen() is the ORB endpoint — the §4.3 trick ("intercepts the
    // listen() call at the server to determine the port").
    orb_listen_fd_ = fd.value();
    orb_endpoint_ = inner_.local_endpoint(fd.value()).value();
  }
  return fd;
}

sim::Task<net::Result<int>> ServerMead::accept(int listen_fd) {
  auto fd = co_await inner_.accept(listen_fd);
  if (fd && listen_fd == orb_listen_fd_) {
    client_conns_.emplace(fd.value(), ClientConn{});
  }
  co_return fd;
}

sim::Task<net::Result<int>> ServerMead::connect(const net::Endpoint& remote) {
  co_return co_await inner_.connect(remote);
}

sim::Task<net::Result<Bytes>> ServerMead::read(int fd, std::size_t max_bytes,
                                               std::optional<Duration> timeout) {
  auto data = co_await inner_.read(fd, max_bytes, timeout);
  auto conn = client_conns_.find(fd);
  if (conn == client_conns_.end() || !data || data->empty()) co_return data;

  if (!first_request_seen_) {
    first_request_seen_ = true;
    if (on_first_request_) on_first_request_();
  }
  if (cfg_.scheme == RecoveryScheme::kLocationForward) {
    // §4.1: "parse incoming GIOP Request messages to extract the request_id
    // field" — the dominant source of this scheme's 90% RTT overhead.
    conn->second.request_parser.feed(data.value());
    for (;;) {
      auto frame = conn->second.request_parser.next();
      if (!frame) break;
      if (frame->header.magic != giop::Magic::kGiop ||
          frame->header.type != giop::MsgType::kRequest) {
        continue;
      }
      const bool alive = co_await proc_->sleep(cfg_.costs.lf_request_parse);
      if (!alive) co_return make_unexpected(net::NetErr::kProcessDead);
      auto req = giop::decode_request(frame->data);
      if (!req) continue;
      ++stats_.requests_seen;
      conn = client_conns_.find(fd);
      if (conn == client_conns_.end()) co_return data;
      conn->second.last_request_id = req->request_id;
      conn->second.last_key_hash = req->object_key.hash16();
      if (app_state_ && cfg_.state.dedup_cap > 0) {
        note_request_token(conn->second, *req);
      }
    }
  } else {
    ++stats_.requests_seen;
    if (app_state_ && cfg_.state.dedup_cap > 0) {
      // Reply dedup needs the request token even when the scheme does not
      // otherwise parse GIOP; token extraction is a tail memcpy in the real
      // interceptor, so no parse cost is charged here.
      conn->second.request_parser.feed(data.value());
      for (;;) {
        auto frame = conn->second.request_parser.next();
        if (!frame) break;
        if (frame->header.magic != giop::Magic::kGiop ||
            frame->header.type != giop::MsgType::kRequest) {
          continue;
        }
        auto req = giop::decode_request(frame->data);
        if (req) note_request_token(conn->second, *req);
      }
    }
  }
  co_return data;
}

sim::Task<net::Result<std::size_t>> ServerMead::writev(int fd, Bytes data) {
  auto conn = client_conns_.find(fd);
  if (conn == client_conns_.end()) {
    co_return co_await inner_.writev(fd, std::move(data));
  }

  // The event-driven trigger point (§3.1): proactive recovery work happens
  // on the reply path, only while clients are actually connected.
  check_thresholds();

  const std::size_t orig_size = data.size();
  if (migrating_ && migrate_target_) {
    switch (cfg_.scheme) {
      case RecoveryScheme::kLocationForward: {
        const bool alive = co_await proc_->sleep(cfg_.costs.lf_reply_process);
        if (!alive) co_return make_unexpected(net::NetErr::kProcessDead);
        conn = client_conns_.find(fd);
        if (conn == client_conns_.end()) {
          co_return make_unexpected(net::NetErr::kBadFd);
        }
        // Validate the stored request against the target via the 16-bit
        // key hash (§4.1 optimization), then substitute the reply.
        auto reply = giop::decode_reply(data);
        const std::uint32_t request_id =
            reply ? reply->request_id : conn->second.last_request_id;
        auto target = registry_.lookup_by_key_hash(conn->second.last_key_hash,
                                                   migrate_target_->member);
        const giop::IOR& fwd = target ? target->ior : migrate_target_->ior;
        Bytes substituted = giop::encode_reply(
            giop::make_location_forward_reply(request_id, fwd));
        ++stats_.replies_suppressed;
        auto wrote = co_await inner_.writev(fd, std::move(substituted));
        if (!wrote) co_return wrote;
        co_return orig_size;  // the ORB believes its reply left intact
      }
      case RecoveryScheme::kMeadMessage: {
        if (!conn->second.redirected) {
          conn->second.redirected = true;
          ++stats_.failover_piggybacks;
          failover_piggybacks_.add();
          Bytes combined = encode_failover_frame(
              FailoverMsg{migrate_target_->endpoint, migrate_target_->member});
          append_bytes(combined, data);
          data = std::move(combined);
        }
        break;  // fall through to the piggyback-cost charge + write
      }
      default:
        break;
    }
  }

  if (cfg_.scheme == RecoveryScheme::kMeadMessage) {
    // Piggyback bookkeeping runs on every reply (the steady-state ~3%
    // overhead), not just during migration.
    const bool alive = co_await proc_->sleep(cfg_.costs.mead_piggyback);
    if (!alive) co_return make_unexpected(net::NetErr::kProcessDead);
  }
  if (app_state_ && !restoring_ && registry_.is_first(cfg_.member)) {
    bool duplicate = false;
    conn = client_conns_.find(fd);  // the sleeps above may have closed it
    if (cfg_.state.dedup_cap > 0 && conn != client_conns_.end() &&
        !conn->second.pending_tokens.empty()) {
      const auto token = conn->second.pending_tokens.front();
      conn->second.pending_tokens.pop_front();
      if (dedup_set_.contains(token)) {
        // A retried request the old primary already applied (its cache
        // reached us with its checkpoints): serve the reply, skip the
        // state mutation — client-visible exactly-once across failover.
        duplicate = true;
        ++stats_.dedup_hits;
        if (dedup_hits_ == nullptr) {
          dedup_hits_ =
              &proc_->sim().obs().metrics().counter("state.dedup.hits");
        }
        dedup_hits_->add();
      } else {
        dedup_insert(token);
      }
    }
    if (!duplicate) {
      // Every served reply mutates the keyed accumulator; the log covers
      // the suffix since the last checkpoint and bounds it via log_cap.
      msg_log_->append(app_state_->apply_next());
      if (msg_log_->full()) proc_->sim().spawn(push_checkpoint());
    }
  }
  ++stats_.replies_passed;
  auto wrote = co_await inner_.writev(fd, std::move(data));
  if (!wrote) co_return wrote;
  co_return orig_size;
}

sim::Task<net::Result<std::vector<int>>> ServerMead::select(
    std::vector<int> fds, std::optional<Duration> timeout) {
  // The paper adds the GC socket into the server's select() set; our GC
  // intake is a coroutine (same event-driven property), so this is a pure
  // pass-through.
  co_return co_await inner_.select(std::move(fds), timeout);
}

net::Result<void> ServerMead::close(int fd) {
  client_conns_.erase(fd);
  return inner_.close(fd);
}

net::Result<void> ServerMead::dup2(int from_fd, int to_fd) {
  return inner_.dup2(from_fd, to_fd);
}

net::Result<net::Endpoint> ServerMead::local_endpoint(int fd) const {
  return inner_.local_endpoint(fd);
}

net::Result<net::Endpoint> ServerMead::peer_endpoint(int fd) const {
  return inner_.peer_endpoint(fd);
}

}  // namespace mead::core
