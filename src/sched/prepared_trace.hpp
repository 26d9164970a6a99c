// Read-only per-trace preprocessing for the event-driven macro-stepper.
//
// One O(trace) pass computes everything the engine needs to integrate
// analytically between events: the equivalent-lux series, prefix moments
// (so dt-weighted mean and variance of the illuminance over ANY step
// range [i, j) cost O(1)), and the ratio-band segmentation from
// env/segments.hpp. The object is immutable after construction, so one
// instance is shared read-only by every node that runs over the same
// trace + cell — the fleet engine builds one per environment and the
// per-node cost of event stepping stays O(events), not O(trace).
#pragma once

#include <cstddef>
#include <vector>

#include "env/light_trace.hpp"
#include "env/segments.hpp"
#include "pv/diode_models.hpp"
#include "sched/options.hpp"

namespace focv::sched {

/// The segmentation an event run with these options walks: the ratio
/// band, with the surrogate's dark cutoff (CurveCache::kDarkLux) as the
/// floor. A PreparedTrace handed to an event run must be built with it.
[[nodiscard]] env::SegmentationOptions segmentation_for(const EventOptions& events);

class PreparedTrace {
 public:
  /// Builds the per-step series, prefix sums and segmentation. The trace
  /// and cell must outlive this object (held by reference).
  PreparedTrace(const env::LightTrace& trace, const pv::SingleDiodeModel& cell,
                const env::SegmentationOptions& segmentation);

  [[nodiscard]] const env::LightTrace& trace() const { return *trace_; }
  [[nodiscard]] const pv::SingleDiodeModel& cell() const { return *cell_; }
  [[nodiscard]] const env::SegmentationOptions& segmentation() const { return seg_options_; }

  /// Number of simulation steps (trace samples - 1).
  [[nodiscard]] std::size_t step_count() const { return n_steps_; }
  /// Equivalent fluorescent illuminance per sample (unscaled — per-node
  /// lux_scale is applied by the engine, which keeps this shareable).
  [[nodiscard]] const std::vector<double>& eq_lux() const { return eq_lux_; }
  /// Total (artificial + daylight) illuminance per sample.
  [[nodiscard]] const std::vector<double>& total_lux() const { return total_lux_; }
  /// Ratio-band segments over the equivalent-lux steps.
  [[nodiscard]] const std::vector<env::Segment>& segments() const { return segments_; }

  /// dt-weighted moments of the (unscaled) equivalent lux over steps
  /// [i, j): w = sum dt, m1 = sum lux*dt, m2 = sum lux^2*dt. O(1).
  struct Moments {
    double w = 0.0;
    double m1 = 0.0;
    double m2 = 0.0;
  };
  [[nodiscard]] Moments moments(std::size_t i, std::size_t j) const {
    return {cum_dt_[j] - cum_dt_[i], cum_eq_[j] - cum_eq_[i], cum_eq2_[j] - cum_eq2_[i]};
  }

  /// dt-weighted mean of the total illuminance over steps [i, j). O(1).
  [[nodiscard]] double total_lux_mean(std::size_t i, std::size_t j) const {
    const double w = cum_dt_[j] - cum_dt_[i];
    return w > 0.0 ? (cum_total_[j] - cum_total_[i]) / w : 0.0;
  }

 private:
  const env::LightTrace* trace_;
  const pv::SingleDiodeModel* cell_;
  env::SegmentationOptions seg_options_;
  std::size_t n_steps_ = 0;
  std::vector<double> eq_lux_;
  std::vector<double> total_lux_;
  // Prefix sums over steps, size n_steps_ + 1 (index 0 is 0).
  std::vector<double> cum_dt_;
  std::vector<double> cum_eq_;
  std::vector<double> cum_eq2_;
  std::vector<double> cum_total_;
  std::vector<env::Segment> segments_;
};

}  // namespace focv::sched
