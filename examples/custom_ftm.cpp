// Extending the framework with a brick that did not exist at design time —
// the paper's headline claim: "new FTMs can be designed off-line at any
// point during service life and integrated on-line" (§2, agile adaptation).
//
// We define a new syncAfter brick, "custom.syncAfter.lfr_audit": LFR's
// agreement phase extended with an audit trail (every reply digest is
// journaled to stable storage — think certification evidence for a safety
// case). We assemble a custom FTM from it, register it with the running
// repository, and transition the live system onto it — no redeployment, no
// restart, the two untouched bricks keep running.
//
// This mirrors §8's observation that the Before-Proceed-After scheme carries
// over to other non-functional mechanisms (audit, encryption, ...).
#include <cstdio>

#include "rcs/core/system.hpp"
#include "rcs/ftm/sync_after_duplex.hpp"
#include "rcs/sim/stable_storage.hpp"

using namespace rcs;

namespace {

/// The new brick: LFR notification + audit journaling. Developed "off-line"
/// (here: in this example file), shipped on-line via a transition package.
class SyncAfterLfrAudit final : public ftm::SyncAfterDuplexBase {
 public:
  SyncAfterLfrAudit() : SyncAfterDuplexBase(/*with_assertion=*/false) {}

  static comp::ComponentTypeInfo type_info() {
    comp::ComponentTypeInfo info;
    info.type_name = "custom.syncAfter.lfr_audit";
    info.description = "syncAfter: LFR notification + audit trail";
    info.category = comp::TypeCategory::kBrick;
    info.services = {{"in", ftm::iface::kSyncAfter}};
    info.references = {{"control", ftm::iface::kProtocolControl},
                       {"replyLog", ftm::iface::kReplyLog},
                       {"state", ftm::iface::kStateManager, false}};
    info.code_size = 15'000;
    info.source_file = "examples/custom_ftm.cpp";
    info.factory = [] { return std::make_unique<SyncAfterLfrAudit>(); };
    kSlots.check(info);  // the reference order SyncAfterDuplexBase calls by
    return info;
  }

 protected:
  ftm::BrickStatus master_after(const ftm::RequestCtx& ctx) override {
    audit(ctx);
    if (!peer_available(ctx)) return done();
    Value data = Value::map();
    data.set("key", ftm::KeyText(ctx.key).view())
        .set("digest", digest(ctx.result));
    send_peer({ftm::PeerPhase::kAfter, ftm::PeerKind::kNotify, ctx.key,
               std::move(data)});
    count_event(ftm::Event::kNotification);
    return done();
  }

  ftm::BrickStatus on_solicited(const ftm::RequestCtx& ctx,
                                const ftm::PeerMessage& message) override {
    if (message.kind == ftm::PeerKind::kNotify &&
        message.data().at("digest").as_int() != digest(ctx.result)) {
      report_fault("divergence");
    }
    audit(ctx);
    return done();
  }

  ftm::BrickStatus on_unsolicited(const ftm::PeerMessage& message) override {
    if (message.kind == ftm::PeerKind::kNotify) return stash();
    return handled();
  }

  ftm::BrickStatus forwarded_after(const ftm::RequestCtx& /*ctx*/) override {
    return wait_for(ftm::PeerKind::kNotify);
  }

 private:
  void audit(const ftm::RequestCtx& ctx) {
    if (host() == nullptr) return;
    // Certification evidence survives crashes: journal to stable storage.
    Value trail = host()->stable().get("audit.trail");
    if (!trail.is_list()) trail = Value::list();
    trail.push_back(Value::map()
                        .set("key", ftm::KeyText(ctx.key).view())
                        .set("digest", digest(ctx.result)));
    host()->stable().put("audit.trail", trail);
  }
};

}  // namespace

int main() {
  std::printf("=== Custom FTM: LFR with audit trail ===\n\n");

  core::SystemOptions options;
  options.start_monitoring = false;
  core::ResilientSystem system(options);

  system.deploy_and_wait(ftm::FtmConfig::lfr());
  for (int i = 0; i < 3; ++i) {
    (void)system.roundtrip(
        Value::map().set("op", "incr").set("key", "n").set("by", 1));
  }
  std::printf("running plain LFR; 3 requests served\n");

  // --- "Off-line" development: register the new brick + FTM ----------------
  comp::ComponentRegistry::instance().register_type(
      SyncAfterLfrAudit::type_info());
  ftm::FtmConfig lfr_audit;
  lfr_audit.name = "LFR_AUDIT";
  lfr_audit.sync_before = ftm::brick::kSyncBeforeLfr;     // reused
  lfr_audit.proceed = ftm::brick::kProceedCompute;        // reused
  lfr_audit.sync_after = "custom.syncAfter.lfr_audit";    // the new brick
  lfr_audit.duplex = true;
  std::printf("\nnew FTM designed off-line: %s = {%s, %s, %s}\n",
              lfr_audit.name.c_str(), lfr_audit.sync_before.c_str(),
              lfr_audit.proceed.c_str(), lfr_audit.sync_after.c_str());
  std::printf("differential distance from LFR: %d brick\n",
              ftm::FtmConfig::lfr().diff_size(lfr_audit));

  // --- On-line integration: one-brick transition on the live system --------
  const auto report = system.transition_and_wait(lfr_audit);
  std::printf("transition LFR -> LFR_AUDIT: ok=%d, %d component shipped, "
              "%.0f ms\n",
              report.ok, report.components_shipped,
              sim::to_ms(report.mean_replica_total()));

  for (int i = 0; i < 4; ++i) {
    (void)system.roundtrip(
        Value::map().set("op", "incr").set("key", "n").set("by", 1),
        30 * sim::kSecond);
  }

  const Value trail = system.replica(0).stable().get("audit.trail");
  std::printf("\naudit trail on the leader: %zu entries "
              "(journaled to stable storage)\n",
              trail.is_list() ? trail.size() : 0);
  const Value reply = system.roundtrip(
      Value::map().set("op", "get").set("key", "n"), 30 * sim::kSecond);
  std::printf("counter = %lld — state survived the custom transition\n",
              static_cast<long long>(reply.at("result").at("value").as_int()));
  return report.ok && trail.is_list() && trail.size() >= 4 ? 0 : 1;
}
