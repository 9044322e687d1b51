#include "app/experiment_client.h"

#include "common/log.h"

namespace mead::app {

namespace {

// Stable per-client dedup identity: FNV-1a of the GC member name (unique
// cluster-wide), so tokens survive the client process without any central
// id allocation.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

double ClientResults::steady_state_rtt_ms() const {
  // Failover RTTs are excluded by value: any sample that also appears in
  // failover_ms was a recovery invocation. Recovery invocations are rare
  // (~0.4%), so excluding by a simple 3x-median cut is robust and cheap.
  if (rtt_ms.count() < 10) return rtt_ms.mean();
  const double median = rtt_ms.percentile(50);
  double sum = 0;
  std::size_t n = 0;
  const auto& samples = rtt_ms.samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {  // skip resolve spike
    if (samples[i] <= 2.0 * median) {
      sum += samples[i];
      ++n;
    }
  }
  return n == 0 ? rtt_ms.mean() : sum / static_cast<double>(n);
}

ExperimentClient::ExperimentClient(Testbed& bed, ClientOptions opts)
    : bed_(bed), opts_(std::move(opts)) {
  // One target per measured service: the single `service` by default, the
  // stripe list when given.
  std::vector<std::string> services = opts_.services;
  if (services.empty()) services.push_back(opts_.service);
  const bool striped = services.size() > 1;

  // The paper's group keeps the historical bare names ("client", registry
  // keys "client.*"); other groups are service-qualified so concurrent
  // per-group clients never share counters or member names. Striped and
  // K>1 clients receive explicit names from the Experiment.
  const bool default_group = !striped && services.front() == kServiceName;
  if (opts_.member.empty()) {
    opts_.member = striped ? "stripe/client/1"
                   : default_group ? "client/1"
                                   : services.front() + "/client/1";
  }
  label_ = opts_.label.empty()
               ? (striped          ? "stripe/client"
                  : default_group  ? "client"
                                   : services.front() + "/client")
               : opts_.label;
  prefix_ = opts_.prefix.empty()
                ? (striped         ? "client.stripe"
                   : default_group ? "client"
                                   : "client." + services.front())
                : opts_.prefix;

  for (const auto& svc : services) {
    Target t;
    t.service = svc;
    const ServiceGroup* group = bed_.group(svc);
    t.scheme = group != nullptr ? group->spec().scheme : bed_.options().scheme;
    targets_.push_back(std::move(t));
  }
  scheme_ = targets_.front().scheme;
  proc_ = bed_.net().spawn_process(bed_.client_host(), label_);

  auto& metrics = bed_.sim().obs().metrics();
  auto hook = [&metrics](const std::string& name) {
    TaxonomyCounter t;
    t.counter = &metrics.counter(name);
    t.base = t.counter->value();
    return t;
  };
  comm_failures_ = hook(prefix_ + ".comm_failures");
  transients_ = hook(prefix_ + ".transients");
  other_exceptions_ = hook(prefix_ + ".other_exceptions");
  naming_refreshes_ = hook(prefix_ + ".naming_refreshes");
  route_switches_ = hook(prefix_ + ".route_switches");

  // The client interceptor is per-process. NEEDS_ADDRESSING queries one
  // group, so striping across it is a configuration error; the MEAD
  // scheme's frame handling is per-connection and stripes fine.
  const Target* intercepted = nullptr;
  for (const auto& t : targets_) {
    if (t.scheme == core::RecoveryScheme::kNeedsAddressing ||
        t.scheme == core::RecoveryScheme::kMeadMessage) {
      intercepted = &t;
      break;
    }
  }
  if (intercepted != nullptr &&
      intercepted->scheme == core::RecoveryScheme::kNeedsAddressing &&
      targets_.size() > 1) {
    config_error_ =
        "striped clients cannot use needs-addressing (single-service query)";
  }
  net::SocketApi* api = &proc_->api();
  if (intercepted != nullptr && config_error_.empty()) {
    core::MeadConfig cfg;
    cfg.scheme = intercepted->scheme;
    cfg.costs = bed_.options().calib.interceptor_costs();
    cfg.service = intercepted->service;
    cfg.member = opts_.member;
    cfg.daemon = net::Endpoint{bed_.client_host(), gc::kDefaultDaemonPort};
    mead_ = std::make_unique<core::ClientMead>(proc_, cfg);
    mead_->set_query_timeout(opts_.query_timeout);
    api = mead_.get();
  }
  orb_ = std::make_unique<orb::Orb>(*proc_, *api,
                                    bed_.options().calib.client_costs());
  // Naming shares the orb, so resolves are covered by the deadline too.
  if (opts_.invoke_timeout) orb_->set_invoke_timeout(*opts_.invoke_timeout);
  naming_ = std::make_unique<naming::NamingClient>(*orb_, bed_.naming_ref());
}

ExperimentClient::~ExperimentClient() = default;

ClientResults ExperimentClient::results() const {
  ClientResults out = results_;
  out.comm_failures = comm_failures_.delta();
  out.transients = transients_.delta();
  out.other_exceptions = other_exceptions_.delta();
  out.naming_refreshes = naming_refreshes_.delta();
  out.route_switches = route_switches_.delta();
  if (quorum_reads_ != nullptr) {
    out.quorum_reads = quorum_reads_->value() - quorum_reads_base_;
    out.quorum_repairs = quorum_repairs_->value() - quorum_repairs_base_;
  }
  return out;
}

void ExperimentClient::note_exception(giop::SysExKind kind) {
  switch (kind) {
    case giop::SysExKind::kCommFailure:
      comm_failures_.bump();
      break;
    case giop::SysExKind::kTransient:
      transients_.bump();
      break;
    default:
      other_exceptions_.bump();
      break;
  }
  bed_.sim().obs().emit(obs::EventKind::kClientException, label_,
                        std::string(giop::repository_id(kind)));
}

sim::Task<StartResult> ExperimentClient::setup_target(Target& target) {
  if (target.scheme == core::RecoveryScheme::kReactiveCache) {
    auto all = co_await naming_->resolve_all(target.service);
    if (!all || all->empty()) {
      co_return start_error("initial resolve_all returned no bindings");
    }
    target.cache = std::move(all.value());
    target.cache_idx = 0;
    target.stub = std::make_unique<orb::Stub>(*orb_, target.cache[0]);
  } else {
    auto primary = co_await naming_->resolve(target.service);
    if (!primary) {
      co_return start_error("initial Naming resolve failed");
    }
    target.stub = std::make_unique<orb::Stub>(*orb_, std::move(primary.value()));
  }
  const ServiceGroup* group = bed_.group(target.service);
  // Reply dedup rides on the group's checkpointed state: token every
  // request so a failover retry of an applied write is answered from the
  // server's cache instead of re-applied.
  target.dedup = group != nullptr && group->spec().state.dedup_cap > 0;
  // Read-fanout routing: attach a router and keep it fed with the Recovery
  // Manager's read-set updates (kReadSet for kActiveReadFanout, kQuorumSet
  // for kQuorum). Warm-passive groups have no read set, so a non-default
  // policy quietly degenerates to primary-only there.
  if (opts_.routing != orb::RoutingPolicy::kPrimaryOnly) {
    if (group != nullptr && core::publishes_read_set(group->spec().style)) {
      target.quorum =
          group->spec().style == core::ReplicationStyle::kQuorum;
      target.router = std::make_unique<orb::Router>(opts_.routing);
      target.stub->set_router(target.router.get());
      orb::Router* router = target.router.get();
      target.read_set = std::make_unique<core::ReadSetSubscriber>(
          *proc_, opts_.member + "/rs/" + target.service,
          net::Endpoint{bed_.client_host(), gc::kDefaultDaemonPort},
          target.service,
          [router](const core::ReadSet& rs,
                   const std::vector<std::string>& catching_up) {
            std::vector<orb::Router::Target> members;
            members.reserve(rs.entries.size());
            for (const auto& e : rs.entries) {
              members.push_back(orb::Router::Target{e.member, e.ior});
            }
            router->update(rs.version, rs.primary, std::move(members),
                           catching_up);
          });
      const bool up = co_await target.read_set->start();
      if (!up) {
        co_return start_error("read-set subscriber could not reach daemon");
      }
    }
  }
  co_return StartResult{};
}

sim::Task<StartResult> ExperimentClient::setup() {
  if (!config_error_.empty()) co_return start_error(config_error_);
  if (mead_) {
    const bool up = co_await mead_->start();
    if (!up) {
      co_return start_error("client interceptor could not reach its daemon");
    }
  }
  // Initial Naming Service contact — the paper's "initial transient spike".
  // Striped clients resolve every target here; sample 0 covers them all.
  const TimePoint t0 = proc_->sim().now();
  for (auto& target : targets_) {
    auto up = co_await setup_target(target);
    if (!up) co_return up;
  }
  results_.rtt_ms.add((proc_->sim().now() - t0).ms());
  co_return StartResult{};
}

sim::Task<void> ExperimentClient::recover_no_cache(Target& target) {
  // "the client ... contact[s] the CORBA Naming Service for the address of
  // the next available server replica" (§5): fetch fresh bindings and move
  // to the entry after the one that just failed.
  naming_refreshes_.bump();
  bed_.sim().obs().emit(obs::EventKind::kNamingRefresh, label_, "no-cache");
  const std::string failed_host = target.stub->target().endpoint.host;
  auto all = co_await naming_->resolve_all(target.service);
  if (!all || all->empty()) co_return;  // naming outage: retry next loop
  const auto& list = all.value();
  std::size_t failed_idx = list.size();
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].endpoint.host == failed_host) {
      failed_idx = i;
      break;
    }
  }
  const std::size_t pick =
      failed_idx == list.size() ? 0 : (failed_idx + 1) % list.size();
  target.stub->rebind(list[pick]);
}

sim::Task<void> ExperimentClient::recover_cached(Target& target,
                                                 giop::SysExKind kind) {
  if (kind == giop::SysExKind::kTransient) {
    // Stale cache reference (§5.2.1): the entry points at a dead
    // incarnation's old address. Refresh all replica references in one
    // sweep (the paper's ~9.7 ms spike: "the time taken to resolve all
    // three replica references") and retry the refreshed slot.
    naming_refreshes_.bump();
    bed_.sim().obs().emit(obs::EventKind::kNamingRefresh, label_, "cached");
    auto all = co_await naming_->resolve_all(target.service);
    if (all && !all->empty()) {
      target.cache = std::move(all.value());
      // Move past the stale slot: its host is typically mid-relaunch and
      // not yet re-registered, so retrying it would only raise another
      // TRANSIENT (the paper sees a single TRANSIENT, then the ~9.7 ms
      // refresh spike, then "a correct response").
      target.cache_idx = (target.cache_idx + 1) % target.cache.size();
      target.stub->rebind(target.cache[target.cache_idx]);
      co_return;
    }
  }
  // COMM_FAILURE: "the client ... moved on to the next entry in the cache".
  target.cache_idx = (target.cache_idx + 1) % target.cache.size();
  target.stub->rebind(target.cache[target.cache_idx]);
}

sim::Task<void> ExperimentClient::confirm_read(Target& target) {
  // R = 2 over the read set: the routed read already answered; confirm it
  // against one more live, caught-up replica. The per-member version
  // vector holds the highest served_count each member ever returned — a
  // reply below its own high-water mark means that replica regressed
  // (restored from a stale checkpoint) and needs repair.
  const std::string first = target.router->last_routed();
  const orb::Router::Target* other = target.router->pick_read_other(first);
  if (other == nullptr) co_return;  // no second healthy member right now
  if (!target.confirm_stub) {
    target.confirm_stub = std::make_unique<orb::Stub>(*orb_, other->ior);
    target.confirm_member = other->member;
  } else if (target.confirm_member != other->member) {
    target.confirm_stub->rebind(other->ior);
    target.confirm_member = other->member;
  }
  auto reply = co_await get_time(*target.confirm_stub);
  if (!reply) co_return;  // best-effort: the next read-set update culls it
  if (quorum_reads_ == nullptr) {
    auto& metrics = bed_.sim().obs().metrics();
    quorum_reads_ = &metrics.counter(prefix_ + ".quorum.reads");
    quorum_repairs_ = &metrics.counter(prefix_ + ".quorum.repairs");
    quorum_reads_base_ = quorum_reads_->value();
    quorum_repairs_base_ = quorum_repairs_->value();
  }
  quorum_reads_->add();
  auto& high = target.seen_counts[target.confirm_member];
  if (reply->served_count < high) {
    quorum_repairs_->add();
  } else {
    high = reply->served_count;
  }
}

sim::Task<void> ExperimentClient::recover(Target& target,
                                          giop::SysExKind kind) {
  if (target.scheme == core::RecoveryScheme::kReactiveCache) {
    co_await recover_cached(target, kind);
  } else {
    // No-cache policy; also the fallback for proactive schemes when a
    // failure reached the application anyway.
    co_await recover_no_cache(target);
  }
}

sim::Task<void> ExperimentClient::run() {
  auto up = co_await setup();
  if (!up) {
    LogLine(proc_->sim().log(), LogLevel::kError, "client")
        << "setup failed (" << to_string(scheme_) << "): "
        << up.error().reason;
    done_ = true;
    co_return;
  }

  auto& obs = bed_.sim().obs();
  Series& rtt_series = obs.metrics().series(prefix_ + ".rtt_ms");
  Series& failover_series = obs.metrics().series(prefix_ + ".failover_ms");
  rtt_series.reserve(static_cast<std::size_t>(opts_.invocations));

  for (int i = 0; i < opts_.invocations && proc_->alive(); ++i) {
    // Striping: invocation i goes to service i % N.
    Target& target = targets_[static_cast<std::size_t>(i) % targets_.size()];
    const TimePoint t0 = proc_->sim().now();
    const std::uint64_t forwards0 = target.stub->forwards_followed();
    const std::uint64_t readdress0 = target.stub->readdress_retries();
    const std::uint64_t switches0 = target.stub->route_switches();
    const std::uint64_t redirects0 =
        mead_ ? mead_->stats().mead_redirects : 0;
    bool exception_seen = false;

    // Dedup token: fixed for the whole invocation, so every failover retry
    // carries the same (client_id, seq) and the server's reply cache can
    // suppress a re-apply (exactly-once across handoff).
    Bytes token;
    if (target.dedup) {
      giop::CdrWriter w;
      w.write_u64(fnv1a(opts_.member));
      w.write_u64(static_cast<std::uint64_t>(i));
      token = w.take();
    }

    std::uint64_t served_count = 0;
    for (;;) {
      auto reply = co_await get_time(*target.stub, token);
      if (reply) {
        served_count = reply->served_count;
        break;
      }
      if (!exception_seen) {
        exception_seen = true;
        obs.emit(obs::EventKind::kFailoverBegin, label_,
                 std::string(giop::repository_id(reply.error().kind)),
                 static_cast<double>(i));
      }
      note_exception(reply.error().kind);
      // A routed-to read replica failed: drop it from the rotation until
      // the next read-set update, then run the scheme's usual recovery.
      if (target.router) target.router->note_failure();
      if (!proc_->alive()) co_return;
      co_await recover(target, reply.error().kind);
    }

    const Duration rtt = proc_->sim().now() - t0;
    results_.rtt_ms.add(rtt.ms());
    rtt_series.add(rtt.ms());
    ++results_.invocations_completed;
    if (const std::uint64_t s = target.stub->route_switches() - switches0;
        s > 0) {
      route_switches_.counter->add(s);
    }

    const bool recovery_event =
        exception_seen || target.stub->forwards_followed() > forwards0 ||
        target.stub->readdress_retries() > readdress0 ||
        (mead_ && mead_->stats().mead_redirects > redirects0);
    if (recovery_event) {
      results_.failover_ms.add(rtt.ms());
      failover_series.add(rtt.ms());
      obs.emit(obs::EventKind::kFailoverEnd, label_,
               exception_seen ? "visible" : "masked", rtt.ms());
    }

    if (target.quorum && target.router) {
      // Record the routed member's high-water mark, then confirm the read
      // against a second replica (R = 2).
      if (const std::string& m = target.router->last_routed(); !m.empty()) {
        auto& high = target.seen_counts[m];
        if (served_count > high) high = served_count;
      }
      co_await confirm_read(target);
    }

    const TimePoint next = t0 + opts_.spacing;
    if (proc_->sim().now() < next) {
      const bool alive = co_await proc_->sleep(next - proc_->sim().now());
      if (!alive) break;
    }
  }
  done_ = true;
}

}  // namespace mead::app
