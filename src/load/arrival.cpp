#include "rcs/load/arrival.hpp"

#include <algorithm>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"

namespace rcs::load {

namespace {

sim::Duration exponential_gap(Rng& rng, double rate) {
  const double seconds = rng.exponential(rate);
  // Clamp to one microsecond so two arrivals never collapse onto the same
  // instant with zero separation (the event loop is fine with ties, but a
  // zero gap at astronomical rates would loop forever in a burst drain).
  return std::max<sim::Duration>(
      1, static_cast<sim::Duration>(seconds * sim::kSecond));
}

}  // namespace

OpenPoisson::OpenPoisson(double per_client_rps) : rate_(per_client_rps) {
  ensure(per_client_rps > 0.0, "OpenPoisson: rate must be positive");
}

sim::Duration OpenPoisson::next_gap(Rng& rng) {
  return exponential_gap(rng, rate_);
}

ClosedLoopThink::ClosedLoopThink(double per_client_rps)
    : rate_(per_client_rps) {
  ensure(per_client_rps > 0.0, "ClosedLoopThink: rate must be positive");
}

sim::Duration ClosedLoopThink::next_gap(Rng& rng) {
  return exponential_gap(rng, rate_);
}

BurstyOnOff::BurstyOnOff(double per_client_rps, double burst_factor,
                         sim::Duration mean_on)
    : rate_(per_client_rps), burst_factor_(burst_factor), mean_on_(mean_on) {
  ensure(per_client_rps > 0.0, "BurstyOnOff: rate must be positive");
  ensure(burst_factor > 1.0, "BurstyOnOff: burst factor must exceed 1");
  ensure(mean_on > 0, "BurstyOnOff: mean burst length must be positive");
}

sim::Duration BurstyOnOff::next_gap(Rng& rng) {
  sim::Duration silence = 0;
  if (on_remaining_ <= 0) {
    // Fresh burst. The off period is sized so that bursts at
    // burst_factor * rate average out to `rate` over on + off:
    //   mean_off = mean_on * (burst_factor - 1).
    const double mean_off_s =
        (static_cast<double>(mean_on_) / sim::kSecond) * (burst_factor_ - 1.0);
    silence = exponential_gap(rng, 1.0 / mean_off_s);
    on_remaining_ = exponential_gap(
        rng, 1.0 / (static_cast<double>(mean_on_) / sim::kSecond));
  }
  const sim::Duration gap = exponential_gap(rng, rate_ * burst_factor_);
  on_remaining_ -= gap;
  return silence + gap;
}

ProcessMaker make_process(const std::string& kind, double per_client_rps) {
  if (kind == "open") {
    return [per_client_rps](std::size_t) {
      return std::make_unique<OpenPoisson>(per_client_rps);
    };
  }
  if (kind == "closed") {
    return [per_client_rps](std::size_t) {
      return std::make_unique<ClosedLoopThink>(per_client_rps);
    };
  }
  if (kind == "bursty") {
    return [per_client_rps](std::size_t) {
      return std::make_unique<BurstyOnOff>(per_client_rps);
    };
  }
  throw Error(strf("unknown arrival process '", kind,
                   "' (expected open|closed|bursty)"));
}

}  // namespace rcs::load
