#include "harness/world.h"

#include <iostream>
#include <unordered_map>

namespace rdp::harness {

obs::TelemetryConfig audited_telemetry_config(const ScenarioConfig& config) {
  // The auditor's allowances follow the scenario's ablations: disabling
  // causal order permits result reordering at the proxy, and the Mh
  // re-issue extension can legitimately give an Mh a second proxy (and
  // replay old result sequence numbers) after a crash.
  obs::TelemetryConfig telemetry = config.telemetry;
  if (config.rdp.mh_reissue) {
    telemetry.audit_rules.allow_proxy_coexistence = true;
    telemetry.audit_rules.allow_result_reordering = true;
    // Deleting a proxy with requests pending is not a silent drop when the
    // Mh watchdog owns re-driving them: a re-issued request coexists with
    // the stale incarnation it abandoned, and the del-proxy handshake (or
    // an adopted-proxy reclaim) legitimately tears the latter down.
    // Without the watchdog R4 stays armed and the deletion site reports
    // the losses itself.
    telemetry.audit_rules.allow_delproxy_with_pending = true;
  }
  if (!config.causal_order) {
    telemetry.audit_rules.allow_result_reordering = true;
  }
  if (config.replication.mode != replication::Mode::kOff) {
    // During the promotion window a backup's adopted proxy coexists with
    // the (dead) primary's bookkeeping, and re-driven server queries can
    // replay result sequence numbers.
    telemetry.audit_rules.allow_proxy_coexistence = true;
    telemetry.audit_rules.allow_result_reordering = true;
  }
  return telemetry;
}

std::function<void(const net::Envelope&)> wired_message_counter(
    obs::MetricsRegistry& registry) {
  // Payload names are static strings, so the name pointer keys the cache.
  return [registry = &registry,
          cache = std::unordered_map<const char*,
                                     obs::MetricsRegistry::Counter*>{}](
             const net::Envelope& envelope) mutable {
    const char* name = envelope.payload->name();
    auto [it, inserted] = cache.try_emplace(name, nullptr);
    if (inserted) {
      it->second = &registry->counter("net.wired.messages", {{"type", name}});
    }
    it->second->increment();
  };
}

void warn_unclean_teardown(const char* what, obs::Telemetry* telemetry,
                           const analyzer::Analyzer* analyzer) {
  obs::InvariantAuditor* auditor =
      telemetry != nullptr ? telemetry->auditor() : nullptr;
  if (auditor != nullptr && !auditor->clean()) {
    std::cerr << "[rdp-audit] WARNING: " << what
              << " tore down with invariant violations:\n";
    auditor->write_report(std::cerr);
  }
  if (analyzer != nullptr && !analyzer->clean()) {
    std::cerr << "[rdp-analyzer] WARNING: " << what
              << " tore down with conformance violations:\n";
    analyzer->write_report(std::cerr);
  }
}

World::World(ScenarioConfig config)
    : config_(config),
      rng_(config.seed),
      wired_(simulator_, common::Rng(config.seed ^ 0x9e3779b9ULL),
             config.wired),
      causal_(config.causal_order ? std::make_unique<causal::CausalLayer>(wired_)
                                  : nullptr),
      transport_(causal_ ? static_cast<net::WiredTransport&>(*causal_)
                         : static_cast<net::WiredTransport&>(wired_)),
      wireless_(simulator_, common::Rng(config.seed ^ 0x51c64e6dULL),
                config.wireless) {
  telemetry_ = std::make_unique<obs::Telemetry>(
      audited_telemetry_config(config_), &directory_);
  telemetry_->attach(observers_);
  wired_.add_send_observer(wired_message_counter(telemetry_->registry()));

  if (config_.cost.enabled) {
    cost_ledger_ = std::make_unique<obs::CostLedger>(config_.cost,
                                                     &telemetry_->registry());
    cost_ledger_->attach(wired_);
    cost_ledger_->attach(wireless_);
  }

  if (config_.analyzer.enabled) {
    analyzer_ = std::make_unique<analyzer::Analyzer>(config_.analyzer,
                                                     &telemetry_->registry());
    analyzer_tap_ = std::make_unique<analyzer::WireTap>(*analyzer_);
    analyzer_tap_->attach(wired_);
    analyzer_tap_->attach(wireless_, simulator_);
  }

  runtime_ = std::make_unique<core::Runtime>(core::Runtime{
      simulator_, transport_, wireless_, directory_, config_.rdp, observers_,
      counters_});

  if (config_.proxy_checkpointing) {
    checkpoint_store_ = std::make_unique<core::ProxyCheckpointStore>(
        simulator_, config_.checkpoint);
  }

  for (int i = 0; i < config_.num_mss; ++i) {
    const common::MssId id(static_cast<std::uint32_t>(i));
    const common::CellId cell_id = cell(i);
    const common::NodeAddress address = directory_.allocate_address();
    directory_.register_mss(id, cell_id, address);
    auto mss = std::make_unique<core::Mss>(*runtime_, id, cell_id, address);
    if (checkpoint_store_) mss->set_checkpoint_store(checkpoint_store_.get());
    transport_.attach(address, mss.get());
    wireless_.register_cell(cell_id, id, mss.get());
    msses_.push_back(std::move(mss));
  }

  if (config_.replication.mode != replication::Mode::kOff &&
      config_.num_mss >= 2) {
    // Initial backup chains: Mss i replicates to the k next Mss's in
    // id-ring order (the MembershipService repairs these on departures).
    // Register the assignments first (the Replicator constructor resolves
    // its chain from the directory), then attach the hooks.
    const std::vector<common::MssId> all = directory_.mss_ids();
    for (common::MssId id : all) {
      directory_.set_backups(
          id, replication::compute_chain(all, id, config_.replication.k));
    }
    for (int i = 0; i < config_.num_mss; ++i) {
      replicators_.push_back(std::make_unique<replication::Replicator>(
          *runtime_, *msses_[i], config_.replication));
      msses_[i]->set_replication(replicators_.back().get());
    }
  }

  for (int i = 0; i < config_.num_servers; ++i) {
    const common::ServerId id(static_cast<std::uint32_t>(i));
    const common::NodeAddress address = directory_.allocate_address();
    directory_.register_server(id, address);
    auto server = std::make_unique<core::Server>(*runtime_, id, address,
                                                 config_.server, rng_.fork());
    transport_.attach(address, server.get());
    servers_.push_back(std::move(server));
  }

  for (int i = 0; i < config_.num_mh; ++i) {
    mhs_.push_back(std::make_unique<core::MobileHostAgent>(
        *runtime_, common::MhId(static_cast<std::uint32_t>(i))));
  }

  if (!replicators_.empty()) {
    // Allocated last so the membership extension never shifts the address
    // layout of Mss's, servers or anything a seeded scenario depends on.
    membership_ = std::make_unique<replication::MembershipService>(
        *runtime_, config_.replication, directory_.allocate_address());
    observers_.add(membership_.get());
  }
}

World::~World() {
  warn_unclean_teardown("world", telemetry_.get(), analyzer_.get());
}

core::Mss* World::mss_at(common::NodeAddress address) {
  for (auto& mss : msses_) {
    if (mss->address() == address) return mss.get();
  }
  return nullptr;
}

core::Server& World::add_server(
    const std::function<std::unique_ptr<core::Server>(
        core::Runtime&, common::ServerId, common::NodeAddress, common::Rng)>&
        factory) {
  const common::ServerId id(
      static_cast<std::uint32_t>(servers_.size()));
  const common::NodeAddress address = directory_.allocate_address();
  directory_.register_server(id, address);
  auto server = factory(*runtime_, id, address, rng_.fork());
  transport_.attach(address, server.get());
  servers_.push_back(std::move(server));
  return *servers_.back();
}

}  // namespace rdp::harness
