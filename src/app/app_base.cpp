#include "rcs/app/app_base.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/fault_injector.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::app {

ftm::Execution AppServerBase::process(const Value& request) {
  return finish(compute(request));
}

ftm::Execution AppServerBase::process_alternate(const Value& request) {
  return finish(compute_alternate(request));
}

ftm::Execution AppServerBase::finish(Value result) {
  ftm::Execution out{std::move(result), cpu_per_request_};
  if (host() != nullptr) {
    out.cpu = host()->charge_compute(out.cpu);
    // Hardware value faults strike the computation's output.
    out.result = sim::FaultInjector::apply(*host(), std::move(out.result),
                                           host()->sim().rng());
  }
  return out;
}

void AppServerBase::on_start() { read_cpu_per_request(); }

void AppServerBase::on_property_changed(const std::string& key) {
  if (key == "cpu_us") read_cpu_per_request();
}

void AppServerBase::read_cpu_per_request() {
  const Value v = property("cpu_us");
  cpu_per_request_ = v.is_int() ? v.as_int() : kDefaultCpuPerRequest;
}

std::uint64_t AppServerBase::make_stream_id() {
  // Deterministic within a simulation run, unique across the scenarios that
  // matter: different hosts, different host epochs (crash/restart), and
  // repeated capture-side resets within one epoch (the nonce).
  ++stream_nonce_;
  std::uint64_t host_part = 0;
  std::uint64_t epoch_part = 0;
  if (host() != nullptr) {
    host_part = host()->id().value() + 1;
    epoch_part = host()->epoch();
  }
  return (host_part << 24) | ((epoch_part & 0xFFu) << 16) |
         (stream_nonce_ & 0xFFFFu);
}

ftm::StateCapture AppServerBase::capture_delta() {
  if (stream_ == 0) stream_ = make_stream_id();
  ++capture_seq_;
  ftm::StateCapture capture;
  capture.stream = stream_;
  capture.seq = capture_seq_;
  capture.base = acked_seq_;
  // Without fine-grained tracking a "delta" is the whole state, but it still
  // rides the sequence protocol so gap detection and resync keep working.
  capture.full = !supports_state_delta();
  capture.state = capture.full ? state_get() : delta_capture();
  return capture;
}

void AppServerBase::ack_delta(std::uint64_t seq) {
  if (seq > acked_seq_) acked_seq_ = seq;
  delta_ack(seq);
}

ftm::DeltaApply AppServerBase::apply_delta(const ftm::StateCapture& capture) {
  if (capture.full) {
    state_set(capture.state);
    delta_clear();
    applied_stream_ = capture.stream;
    applied_seq_ = capture.seq;
    return ftm::DeltaApply::kApplied;
  }
  const bool same_stream = applied_stream_ == capture.stream;
  if (same_stream && capture.seq <= applied_seq_) {
    // Retransmission of a checkpoint we already hold (link jitter can
    // reorder): ack again, apply nothing.
    return ftm::DeltaApply::kDuplicate;
  }
  // A fresh backup (never applied anything) may adopt a delta stream from its
  // genesis: both sides started from the same deploy-time state.
  const bool genesis = applied_stream_ == 0 && applied_seq_ == 0;
  if ((same_stream || genesis) && capture.base <= applied_seq_) {
    delta_apply(capture.state);
    applied_stream_ = capture.stream;
    applied_seq_ = capture.seq;
    return ftm::DeltaApply::kApplied;
  }
  // Unknown stream (new primary after promotion) or a gap (we missed
  // checkpoints): only a full resync through the join path can recover.
  return ftm::DeltaApply::kResync;
}

ftm::JoinSnapshot AppServerBase::export_full() {
  // Join snapshots anchor the joiner into the CURRENT delta stream: ship the
  // state together with (stream, capture_seq) so overlapping deltas that were
  // already captured apply idempotently on top.
  if (stream_ == 0) stream_ = make_stream_id();
  ftm::JoinSnapshot snapshot;
  snapshot.state = state_get();
  snapshot.ckpt_stream = static_cast<std::int64_t>(stream_);
  snapshot.ckpt_seq = static_cast<std::int64_t>(capture_seq_);
  return snapshot;
}

void AppServerBase::import_full(const ftm::JoinSnapshot& snapshot) {
  ensure(snapshot.state && snapshot.ckpt_stream && snapshot.ckpt_seq,
         "import_full: the snapshot names no state and stream position");
  state_set(*snapshot.state);
  delta_clear();
  applied_stream_ = static_cast<std::uint64_t>(*snapshot.ckpt_stream);
  applied_seq_ = static_cast<std::uint64_t>(*snapshot.ckpt_seq);
  // This node is (re)joining as a backup: its own capture side restarts on a
  // fresh stream if it is ever promoted.
  stream_ = 0;
  capture_seq_ = 0;
  acked_seq_ = 0;
}

Value AppServerBase::state_get() {
  throw FtmError(strf("application '", type_name(), "' has no accessible state"));
}

void AppServerBase::state_set(const Value& /*state*/) {
  throw FtmError(strf("application '", type_name(), "' has no accessible state"));
}

bool AppServerBase::assertion(const Value& /*request*/, const Value& /*result*/) {
  return true;
}

Value AppServerBase::with_checksum(Value result) {
  ensure(result.is_map(), "with_checksum: result must be a map");
  const auto digest = static_cast<std::int64_t>(content_digest(result, "check"));
  result.set("check", digest);
  return result;
}

bool AppServerBase::checksum_ok(const Value& result) {
  if (!result.is_map() || !result.has("check")) return false;
  const Value& check = result.at("check");
  if (!check.is_int()) return false;
  return check.as_int() ==
         static_cast<std::int64_t>(content_digest(result, "check"));
}

std::vector<comp::PortSpec> app_services(bool state_access, bool has_assertion) {
  std::vector<comp::PortSpec> services{{"srv", ftm::iface::kServer}};
  if (state_access) services.push_back({"state", ftm::iface::kStateManager});
  if (has_assertion) services.push_back({"assert", ftm::iface::kAssertion});
  return services;
}

}  // namespace rcs::app
