// Content fingerprints for the incremental computation layer.
//
// Cache keys are 64-bit FNV-1a digests of the exact inputs a cached
// artifact depends on: the claim records of a month for EM snapshots,
// the observation values plus detector options for per-series analysis
// reports. Equal inputs hash equal on every platform (doubles are mixed
// by bit pattern, container contents in a canonical order), so a warm
// rerun recomputes the same keys as the cold run that wrote them and an
// edited month changes its key with near-certainty.

#ifndef MICTREND_CACHE_FINGERPRINT_H_
#define MICTREND_CACHE_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mic/dataset.h"

namespace mic::cache {

/// Streaming 64-bit FNV-1a hasher. Mix* calls fold values into the
/// running digest byte by byte; the order of calls is significant.
class Hasher {
 public:
  Hasher& Mix(std::uint64_t value);
  Hasher& MixSigned(std::int64_t value);
  /// Mixes the IEEE-754 bit pattern, so round-trips through the binary
  /// snapshot format (which stores raw bits) re-derive the same key.
  Hasher& MixDouble(double value);
  Hasher& MixString(std::string_view text);
  /// Folds a raw byte run in one call (one FNV step per byte, not
  /// eight) — the claim store fingerprints its dictionary through this.
  Hasher& MixBytes(const std::uint8_t* data, std::size_t size);

  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 14695981039346656037ull;
};

/// Digest of one month of claims: every record's hospital, patient, and
/// both (id, multiplicity) bags, in stored order.
std::uint64_t FingerprintMonth(const MonthlyDataset& month);

/// Digest of an observation series (values in order, by bit pattern).
std::uint64_t FingerprintSeries(const std::vector<double>& values);

/// Fixed-width lowercase-hex rendering of a key, used as the on-disk
/// entry file name.
std::string KeyToHex(std::uint64_t key);

}  // namespace mic::cache

#endif  // MICTREND_CACHE_FINGERPRINT_H_
