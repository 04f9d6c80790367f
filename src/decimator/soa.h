// Inline requantize support for the block and bank kernels.
//
// The bank classes in cic/fir/hbf/scaler run N independent channels in
// lockstep over channel-interleaved frames (element index = frame * C +
// channel), so the per-channel recurrences become independent lanes and
// the inner loops auto-vectorize. The scalar stages' block kernels
// (process/process_into) run the same arithmetic one channel at a time.
// Bit-exactness against push() requires reproducing fx::requantize digit
// for digit; Requant precomputes the shift/round/clamp parameters once per
// call site and applies them inline, tallying round/saturate events
// locally so no shared atomic is touched per sample. flush() adds the
// tallies to the same fx.<event>.<site> counters fx::requantize uses,
// making counter totals identical for identical data.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "src/fixedpoint/fixed.h"
#include "src/obs/obs.h"
#include "src/obs/store/tracker.h"

namespace dsadc::decim::soa {

/// Precomputed fx::requantize parameters for a fixed (src_frac, fmt,
/// rounding) call site with Overflow::kSaturate semantics. Accepts every
/// (src_frac, fmt) that fx::requantize accepts and throws the same
/// std::invalid_argument for the ones it rejects.
struct Requant {
  int shift = 0;                ///< src_frac - fmt.frac, capped at 63
  std::int64_t round_add = 0;   ///< 2^(shift-1) for round-nearest, else 0
  std::uint64_t drop_mask = 0;  ///< low `shift` bits (round-event detect)
  std::int64_t lo = 0, hi = 0;  ///< saturation bounds
  /// src_frac - fmt.frac >= 63: fx::requantize drops every bit and yields
  /// 0. The shift is capped at 63, which leaves 0 or -1, and the bounds
  /// [0, 0] clamp that to 0, so the per-sample arithmetic stays the same.
  /// The clamp's saturate tallies are then artifacts (0 always fits) and
  /// are neither flushed nor noted.
  bool drops_all = false;
  const fx::EventCounters* site = nullptr;

  Requant() = default;
  Requant(int src_frac, const fx::Format& fmt, fx::Rounding rounding,
          const fx::EventCounters& counters)
      : shift(src_frac - fmt.frac), site(&counters) {
    if (fmt.width < 1 || fmt.width > 62) {
      throw std::invalid_argument("Format: width must be in [1, 62]");
    }
    if (shift <= -63) {
      throw std::invalid_argument("requantize: shift too large");
    }
    if (shift >= 63) {
      shift = 63;
      drop_mask = ~std::uint64_t{0};
      drops_all = true;
      return;
    }
    lo = fmt.raw_min();
    hi = fmt.raw_max();
    if (shift > 0) {
      drop_mask = (std::uint64_t{1} << shift) - 1;
      if (rounding == fx::Rounding::kRoundNearest) {
        round_add = std::int64_t{1} << (shift - 1);
      }
    }
  }
};

/// Per-pass event tallies, bulk-flushed to the site counters.
struct RequantTally {
  std::uint64_t rounds = 0;
  std::uint64_t saturates = 0;

  RequantTally& operator+=(const RequantTally& o) {
    rounds += o.rounds;
    saturates += o.saturates;
    return *this;
  }

  void flush(const Requant& rq) {
    if (obs::enabled() && rq.site != nullptr) {
      if (rounds != 0) rq.site->round->add(rounds);
      if (saturates != 0 && !rq.drops_all) rq.site->saturate->add(saturates);
    }
    rounds = 0;
    saturates = 0;
  }
};

/// Whether fixed-point hits must also reach the trace store's open
/// transaction, as fx::requantize reports them through note_fx(). Read
/// once per block and passed to requantize(): with no transaction open the
/// per-sample cost is one predictable branch.
inline bool noting_fx() {
  return obs::enabled() && obs::store::enabled() &&
         obs::store::current_txn() != nullptr;
}

/// Inline fx::requantize (saturating): identical result and identical
/// round/saturate event decisions as the scalar function. With `note`,
/// every event is also passed to obs::store::note_fx() with the value
/// fx::requantize records, in sample order.
inline std::int64_t requantize(std::int64_t v, const Requant& rq,
                               RequantTally& tally, bool note = false) {
  if (rq.shift > 0) {
    const std::uint64_t dropped = static_cast<std::uint64_t>(v) & rq.drop_mask;
    tally.rounds += static_cast<std::uint64_t>(dropped != 0);
    if (note && dropped != 0 && rq.site != nullptr) {
      obs::store::note_fx(rq.site->round_id,
                          rq.drops_all ? 1 : static_cast<std::int64_t>(dropped));
    }
    v = (v + rq.round_add) >> rq.shift;
  } else if (rq.shift < 0) {
    v = static_cast<std::int64_t>(static_cast<std::uint64_t>(v)
                                  << -rq.shift);
  }
  const std::int64_t c = v < rq.lo ? rq.lo : (v > rq.hi ? rq.hi : v);
  tally.saturates += static_cast<std::uint64_t>(c != v);
  if (note && c != v && !rq.drops_all && rq.site != nullptr) {
    obs::store::note_fx(rq.site->saturate_id, v);
  }
  return c;
}

/// Two's-complement wrap to `width` bits via mask + sign extension; equal
/// to fx::wrap_to for every input but expressed with unsigned ops so the
/// vectorizer can use plain add/and/xor/sub lanes.
struct Wrap {
  std::uint64_t mask = 0;
  std::uint64_t sign = 0;

  Wrap() = default;
  explicit Wrap(int width)
      : mask((std::uint64_t{1} << width) - 1),
        sign(std::uint64_t{1} << (width - 1)) {}

  std::int64_t operator()(std::int64_t v) const {
    const std::uint64_t u = static_cast<std::uint64_t>(v) & mask;
    return static_cast<std::int64_t>((u ^ sign) - sign);
  }
};

}  // namespace dsadc::decim::soa
