#include "src/decimator/cic.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/decimator/simd.h"
#include "src/decimator/soa.h"

namespace dsadc::decim {
namespace {

/// The stage's register width, after checking the spec: it runs in the
/// first member initialiser that needs it, so a bad spec throws before
/// the state vectors (sized by `order`) are allocated. A width of at
/// most 62 bits with input_bits >= 1 and log2(decimation) >= 1 also
/// bounds the order below 62.
int checked_register_width(const design::CicSpec& spec, const char* who) {
  if (spec.order < 1 || spec.decimation < 2) {
    throw std::invalid_argument(std::string(who) +
                                ": order >= 1, decimation >= 2");
  }
  if (spec.input_bits < 1) {
    throw std::invalid_argument(std::string(who) + ": input_bits >= 1");
  }
  const int width = spec.register_width();
  if (width > 62) {
    throw std::invalid_argument(std::string(who) +
                                ": register width exceeds 62 bits");
  }
  return width;
}

}  // namespace

CicDecimator::CicDecimator(design::CicSpec spec, CicHardwareOptions options)
    : spec_(spec),
      options_(options),
      fmt_{checked_register_width(spec, "CicDecimator"), 0},
      integ_(static_cast<std::size_t>(spec.order), 0),
      comb_(static_cast<std::size_t>(spec.order), 0) {}

void CicDecimator::reset() {
  std::fill(integ_.begin(), integ_.end(), 0);
  std::fill(comb_.begin(), comb_.end(), 0);
  phase_ = 0;
}

std::int64_t CicDecimator::dc_gain() const {
  std::int64_t g = 1;
  for (int k = 0; k < spec_.order; ++k) g *= spec_.decimation;
  return g;
}

bool CicDecimator::push(std::int64_t in, std::int64_t& out) {
  // Integrator cascade at the input rate: y_k = wrap(y_k + y_{k-1}).
  // Wraparound (not saturation) is essential: the comb section cancels the
  // modular overflow exactly as long as registers hold Bmax bits.
  std::int64_t acc = fx::wrap_to(in, fmt_);
  for (auto& state : integ_) {
    state = fx::wrap_to(state + acc, fmt_);
    acc = state;
  }
  phase_ = (phase_ + 1) % spec_.decimation;
  if (phase_ != 0) return false;

  // Decimated side: differentiator (comb) cascade, differencing the
  // pipeline-registered accumulator output.
  std::int64_t v = acc;
  for (auto& state : comb_) {
    const std::int64_t prev = state;
    state = v;
    v = fx::wrap_to(v - prev, fmt_);
  }
  out = v;
  return true;
}

std::vector<std::int64_t> CicDecimator::process(
    std::span<const std::int64_t> in) {
  std::vector<std::int64_t> buf(in.begin(), in.end());
  process_inplace(buf);
  return buf;
}

void CicDecimator::process_inplace(std::vector<std::int64_t>& buf) {
  // Block kernel: one sequential pass per integrator section, decimate,
  // then one pass per comb section. Each sample undergoes exactly the
  // same wrapped additions in the same order as the push() path (a
  // section's output depends only on its own state and its input stream),
  // so the result is bit-identical while every pass runs branch-free over
  // contiguous memory at that section's rate.
  const int shift = 64 - fmt_.width;
  const auto wrap = [shift](std::int64_t v) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(v) << shift) >>
           shift;
  };

  for (auto& v : buf) v = wrap(v);
  for (auto& state : integ_) {
    std::int64_t acc = state;
    for (auto& v : buf) {
      acc = wrap(acc + v);
      v = acc;
    }
    state = acc;
  }

  // Keep every decimation-th sample, honouring the phase carried over
  // from any preceding push() calls.
  const auto m = static_cast<std::size_t>(spec_.decimation);
  const std::size_t skip =
      (m - 1) - static_cast<std::size_t>(phase_) % m;  // first kept index
  phase_ = static_cast<int>(
      (static_cast<std::size_t>(phase_) + buf.size()) % m);
  std::size_t n_out = 0;
  for (std::size_t i = skip; i < buf.size(); i += m) buf[n_out++] = buf[i];
  buf.resize(n_out);

  for (auto& state : comb_) {
    std::int64_t prev = state;
    for (auto& v : buf) {
      const std::int64_t cur = v;
      v = wrap(cur - prev);
      prev = cur;
    }
    state = prev;
  }
}

CicDecimatorBank::CicDecimatorBank(design::CicSpec spec, std::size_t channels,
                                   CicHardwareOptions options)
    : spec_(spec),
      options_(options),
      fmt_{checked_register_width(spec, "CicDecimatorBank"), 0},
      channels_(channels),
      integ_(static_cast<std::size_t>(spec.order) * channels, 0),
      comb_(static_cast<std::size_t>(spec.order) * channels, 0) {
  if (channels_ == 0) {
    throw std::invalid_argument("CicDecimatorBank: channels >= 1");
  }
}

void CicDecimatorBank::reset() {
  std::fill(integ_.begin(), integ_.end(), 0);
  std::fill(comb_.begin(), comb_.end(), 0);
  phase_ = 0;
}

void CicDecimatorBank::process_inplace(std::vector<std::int64_t>& data) {
  // The scalar block kernel with every element widened to a row of C
  // channels: per-channel arithmetic and ordering are untouched, so each
  // lane is bit-identical to a dedicated CicDecimator, while the inner
  // channel loops are independent int64 lanes (wrap is add/and/xor/sub,
  // no shifts, so SSE2/AVX2 can take them wholesale).
  const soa::Wrap wrap(fmt_.width);
  const std::size_t C = channels_;
  if (data.size() % C != 0) {
    throw std::invalid_argument(
        "CicDecimatorBank: data size not a multiple of channels");
  }
  const std::size_t frames = data.size() / C;

  // One fused pass through the dispatched SIMD tier: integrator cascade,
  // decimation (honouring the phase carried over from push() calls), and
  // comb cascade, touching each input row once. The scalar kernel's
  // separate input-wrap pass is folded into the first integrator section
  // -- identical by modular arithmetic (wrap(st + wrap(v)) == wrap(st +
  // v)).
  const auto m = static_cast<std::size_t>(spec_.decimation);
  const std::size_t skip = (m - 1) - static_cast<std::size_t>(phase_) % m;
  phase_ = static_cast<int>((static_cast<std::size_t>(phase_) + frames) % m);
  const std::size_t n_out = simd::kernels().cic_stage(
      data.data(), frames, C, integ_.data(), comb_.data(),
      static_cast<std::size_t>(spec_.order), skip, m, wrap);
  data.resize(n_out * C);
}

void CicDecimatorBank::export_lane(std::size_t lane, CicDecimator& dst) const {
  if (lane >= channels_) {
    throw std::invalid_argument("CicDecimatorBank: export lane out of range");
  }
  if (dst.spec_.order != spec_.order ||
      dst.spec_.decimation != spec_.decimation ||
      dst.fmt_.width != fmt_.width) {
    throw std::invalid_argument("CicDecimatorBank: export spec mismatch");
  }
  const auto order = static_cast<std::size_t>(spec_.order);
  for (std::size_t k = 0; k < order; ++k) {
    dst.integ_[k] = integ_[k * channels_ + lane];
    dst.comb_[k] = comb_[k * channels_ + lane];
  }
  dst.phase_ = phase_;
}

CicCascade::CicCascade(std::vector<design::CicSpec> specs,
                       CicHardwareOptions options) {
  if (specs.empty()) throw std::invalid_argument("CicCascade: no stages");
  stages_.reserve(specs.size());
  for (const auto& s : specs) stages_.emplace_back(s, options);
}

void CicCascade::reset() {
  for (auto& s : stages_) s.reset();
}

std::size_t CicCascade::total_decimation() const {
  std::size_t m = 1;
  for (const auto& s : stages_) m *= static_cast<std::size_t>(s.spec().decimation);
  return m;
}

std::int64_t CicCascade::total_dc_gain() const {
  std::int64_t g = 1;
  for (const auto& s : stages_) g *= s.dc_gain();
  return g;
}

std::vector<std::int64_t> CicCascade::process(
    std::span<const std::int64_t> in) {
  std::vector<std::int64_t> cur(in.begin(), in.end());
  for (auto& s : stages_) {
    cur = s.process(cur);
  }
  return cur;
}

}  // namespace dsadc::decim
