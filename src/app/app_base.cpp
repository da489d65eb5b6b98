#include "rcs/app/app_base.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/fault_injector.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::app {

Value AppServerBase::on_invoke(const std::string& service,
                               const std::string& op, const Value& args) {
  if (service == "srv") {
    if (op == "process" || op == "process_alt") {
      const Value& request = args.at("request");
      Value result = op == "process" ? compute(request)
                                     : compute_alternate(request);
      sim::Duration cpu = cpu_per_request();
      if (host() != nullptr) {
        cpu = host()->charge_compute(cpu);
        // Hardware value faults strike the computation's output.
        result = sim::FaultInjector::apply(*host(), std::move(result),
                                           host()->sim().rng());
      }
      Value out = Value::map();
      out.set("result", std::move(result))
          .set("cpu_us", static_cast<std::int64_t>(cpu));
      return out;
    }
    throw FtmError(strf("app.srv: unknown op '", op, "'"));
  }
  if (service == "state") {
    if (op == "get") return state_get();
    if (op == "set") {
      state_set(args);
      return {};
    }
    if (op == "capture_delta") return capture_delta();
    if (op == "ack_delta") {
      ack_delta(static_cast<std::uint64_t>(args.at("seq").as_int()));
      return {};
    }
    if (op == "apply_delta") return apply_delta(args);
    if (op == "export_full") return export_full();
    if (op == "import_full") {
      import_full(args);
      return {};
    }
    if (op == "delta_info") {
      Value info = Value::map();
      info.set("stream", static_cast<std::int64_t>(stream_))
          .set("capture_seq", static_cast<std::int64_t>(capture_seq_))
          .set("acked_seq", static_cast<std::int64_t>(acked_seq_))
          .set("applied_stream", static_cast<std::int64_t>(applied_stream_))
          .set("applied_seq", static_cast<std::int64_t>(applied_seq_))
          .set("delta_capable", supports_state_delta());
      return info;
    }
    throw FtmError(strf("app.state: unknown op '", op, "'"));
  }
  if (service == "assert") {
    if (op == "check") {
      return Value(assertion(args.at("request"), args.at("result")));
    }
    throw FtmError(strf("app.assert: unknown op '", op, "'"));
  }
  throw FtmError(strf("app: unknown service '", service, "'"));
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

Value AppServerBase::capture_delta() {
  if (stream_ == 0) stream_ = make_stream_id();
  ++capture_seq_;
  Value out = Value::map();
  out.set("stream", static_cast<std::int64_t>(stream_))
      .set("seq", static_cast<std::int64_t>(capture_seq_))
      .set("base", static_cast<std::int64_t>(acked_seq_));
  if (supports_state_delta()) {
    out.set("full", false).set("delta", delta_capture());
  } else {
    // No fine-grained tracking: a "delta" is the whole state, but it still
    // rides the sequence protocol so gap detection and resync keep working.
    out.set("full", true).set("state", state_get());
  }
  return out;
}

void AppServerBase::ack_delta(std::uint64_t seq) {
  if (seq > acked_seq_) acked_seq_ = seq;
  delta_ack(seq);
}

Value AppServerBase::apply_delta(const Value& ckpt) {
  const auto stream = static_cast<std::uint64_t>(ckpt.at("stream").as_int());
  const auto seq = static_cast<std::uint64_t>(ckpt.at("seq").as_int());
  const auto base = static_cast<std::uint64_t>(ckpt.at("base").as_int());
  Value out = Value::map();
  if (ckpt.at("full").as_bool()) {
    state_set(ckpt.at("state"));
    delta_clear();
    applied_stream_ = stream;
    applied_seq_ = seq;
    return out.set("ok", true);
  }
  const bool same_stream = applied_stream_ == stream;
  if (same_stream && seq <= applied_seq_) {
    // Retransmission of a checkpoint we already hold (link jitter can
    // reorder): ack again, apply nothing.
    return out.set("ok", true).set("duplicate", true);
  }
  // A fresh backup (never applied anything) may adopt a delta stream from its
  // genesis: both sides started from the same deploy-time state.
  const bool genesis = applied_stream_ == 0 && applied_seq_ == 0;
  if ((same_stream || genesis) && base <= applied_seq_) {
    delta_apply(ckpt.at("delta"));
    applied_stream_ = stream;
    applied_seq_ = seq;
    return out.set("ok", true);
  }
  // Unknown stream (new primary after promotion) or a gap (we missed
  // checkpoints): only a full resync through the join path can recover.
  return out.set("ok", false).set("resync", true);
}

Value AppServerBase::export_full() {
  // Join snapshots anchor the joiner into the CURRENT delta stream: ship the
  // state together with (stream, capture_seq) so overlapping deltas that were
  // already captured apply idempotently on top.
  if (stream_ == 0) stream_ = make_stream_id();
  Value out = Value::map();
  out.set("state", state_get())
      .set("stream", static_cast<std::int64_t>(stream_))
      .set("seq", static_cast<std::int64_t>(capture_seq_));
  return out;
}

void AppServerBase::import_full(const Value& args) {
  state_set(args.at("state"));
  delta_clear();
  applied_stream_ = static_cast<std::uint64_t>(args.at("stream").as_int());
  applied_seq_ = static_cast<std::uint64_t>(args.at("seq").as_int());
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

sim::Duration AppServerBase::cpu_per_request() const {
  const Value v = property("cpu_us");
  return v.is_int() ? v.as_int() : kDefaultCpuPerRequest;
}

Value AppServerBase::with_checksum(Value result) {
  ensure(result.is_map(), "with_checksum: result must be a map");
  result.as_map().erase("check");
  const auto digest = static_cast<std::int64_t>(xxh64(result.encode()));
  result.set("check", digest);
  return result;
}

bool AppServerBase::checksum_ok(const Value& result) {
  if (!result.is_map() || !result.has("check")) return false;
  const Value& check = result.at("check");
  if (!check.is_int()) return false;
  Value stripped = result;
  stripped.as_map().erase("check");
  return check.as_int() == static_cast<std::int64_t>(xxh64(stripped.encode()));
}

std::vector<comp::PortSpec> app_services(bool state_access, bool has_assertion) {
  std::vector<comp::PortSpec> services{{"srv", ftm::iface::kServer}};
  if (state_access) services.push_back({"state", ftm::iface::kStateManager});
  if (has_assertion) services.push_back({"assert", ftm::iface::kAssertion});
  return services;
}

}  // namespace rcs::app
