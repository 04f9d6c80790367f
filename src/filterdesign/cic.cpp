#include "src/filterdesign/cic.h"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "src/dsp/freqz.h"
#include "src/dsp/spectrum.h"

namespace dsadc::design {
namespace {
constexpr double kPi = std::numbers::pi;
}

int CicSpec::register_width() const {
  const double growth = static_cast<double>(order) *
                        std::log2(static_cast<double>(decimation));
  // Eq. (2) of the paper gives the MSB index; width = MSB + 1. Summed in
  // double (exact here) and clamped to int, so absurd specs (orders near
  // 2^31) yield an out-of-range width for the caller to reject instead of
  // overflowing.
  const double width = std::ceil(growth) + static_cast<double>(input_bits);
  if (!(width < static_cast<double>(std::numeric_limits<int>::max()))) {
    return std::numeric_limits<int>::max();
  }
  if (width < static_cast<double>(std::numeric_limits<int>::min())) {
    return std::numeric_limits<int>::min();
  }
  return static_cast<int>(width);
}

double CicSpec::dc_gain() const {
  return std::pow(static_cast<double>(decimation), order);
}

double cic_magnitude(const CicSpec& spec, double f) {
  if (f == 0.0) return 1.0;
  const double m = static_cast<double>(spec.decimation);
  const double num = std::sin(kPi * f * m);
  const double den = m * std::sin(kPi * f);
  if (std::abs(den) < 1e-300) return 1.0;
  return std::pow(std::abs(num / den), spec.order);
}

std::vector<double> cic_impulse_response(const CicSpec& spec) {
  std::vector<double> h{1.0};
  const std::vector<double> box(static_cast<std::size_t>(spec.decimation),
                                1.0 / static_cast<double>(spec.decimation));
  for (int k = 0; k < spec.order; ++k) h = dsp::convolve(h, box);
  return h;
}

double cic_droop_db(const CicSpec& spec, double f) {
  return -dsp::amplitude_db(cic_magnitude(spec, f));
}

double cic_alias_rejection_db(const CicSpec& spec, double fb) {
  if (fb <= 0.0 || fb >= 0.5 / spec.decimation) {
    throw std::invalid_argument("cic_alias_rejection_db: fb out of range");
  }
  double worst = 1e300;
  for (int m = 1; m < spec.decimation; ++m) {
    const double center = static_cast<double>(m) / spec.decimation;
    for (double f : {center - fb, center + fb}) {
      if (f <= 0.0 || f >= 1.0) continue;
      // Attenuation relative to the passband-edge gain.
      const double att = -20.0 * std::log10(cic_magnitude(spec, f) /
                                            cic_magnitude(spec, fb));
      worst = std::min(worst, att);
    }
  }
  return worst;
}

int cic_min_order(int decimation, double fb, double atten_db, int max_order) {
  for (int k = 1; k <= max_order; ++k) {
    CicSpec spec{k, decimation, 1};
    if (cic_alias_rejection_db(spec, fb) >= atten_db) return k;
  }
  return 0;
}

std::vector<CicSpec> paper_sinc_cascade() {
  return {CicSpec{4, 2, 4}, CicSpec{4, 2, 8}, CicSpec{6, 2, 12}};
}

std::vector<double> cic_cascade_response(const std::vector<CicSpec>& stages) {
  std::vector<double> h{1.0};
  std::size_t rate = 1;
  for (const auto& s : stages) {
    const std::vector<double> hs = cic_impulse_response(s);
    const std::vector<double> up = dsp::upsample_taps(hs, rate);
    h = dsp::convolve(h, up);
    rate *= static_cast<std::size_t>(s.decimation);
  }
  return h;
}

}  // namespace dsadc::design
