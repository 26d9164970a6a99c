#include "sched/prepared_trace.hpp"

#include "common/require.hpp"
#include "node/curve_cache.hpp"

namespace focv::sched {

env::SegmentationOptions segmentation_for(const EventOptions& events) {
  env::SegmentationOptions seg;
  seg.ratio_band = events.lux_ratio_band;
  seg.floor = node::CurveCache::kDarkLux;
  return seg;
}

PreparedTrace::PreparedTrace(const env::LightTrace& trace, const pv::SingleDiodeModel& cell,
                             const env::SegmentationOptions& segmentation)
    : trace_(&trace), cell_(&cell), seg_options_(segmentation) {
  require(trace.size() >= 2, "PreparedTrace: trace needs at least 2 samples");
  eq_lux_ = trace.equivalent_lux(cell);
  total_lux_ = trace.total_lux();
  n_steps_ = trace.size() - 1;

  const std::vector<double>& t = trace.time();
  cum_dt_.resize(n_steps_ + 1);
  cum_eq_.resize(n_steps_ + 1);
  cum_eq2_.resize(n_steps_ + 1);
  cum_total_.resize(n_steps_ + 1);
  cum_dt_[0] = cum_eq_[0] = cum_eq2_[0] = cum_total_[0] = 0.0;
  for (std::size_t i = 0; i < n_steps_; ++i) {
    const double dt = t[i + 1] - t[i];
    require(dt > 0.0, "PreparedTrace: trace times must be strictly increasing");
    const double lux = eq_lux_[i];
    cum_dt_[i + 1] = cum_dt_[i] + dt;
    cum_eq_[i + 1] = cum_eq_[i] + lux * dt;
    cum_eq2_[i + 1] = cum_eq2_[i] + lux * lux * dt;
    cum_total_[i + 1] = cum_total_[i] + total_lux_[i] * dt;
  }
  segments_ = env::segment_series(eq_lux_, n_steps_, seg_options_);
}

}  // namespace focv::sched
