/**
 * @file
 * Relocatable DittoState: a versioned, self-describing byte codec for
 * a request's portable rollout state.
 *
 * The unit of relocation is BatchEngine::Parked — exactly what the
 * serving layer already uses for preemption and reuse-cache
 * warm-starts: the partial image, the multiplier-lane tallies, the
 * step counters, and (for requests that carry resident DittoState) the
 * extracted DittoState::SlabState — previous-input codes,
 * previous int32 outputs at the junction/emit slots, the primed flag
 * and the ApproxDitto skip counters. Encoding this unit makes a
 * request *relocatable*: it can migrate between shard workers, be
 * checkpointed across a worker restart, or ride the wire behind the
 * front-door router (docs/sharding.md).
 *
 * Wire format (all integers little-endian; see docs/sharding.md for
 * the full grammar):
 *
 *   u32  magic  'DSLB'
 *   u16  version (kSlabCodecVersion)
 *   u16  flags   (bit0 ditto, bit1 approx, bit2 hasState)
 *   u64  id
 *   i32  stepsDone,  i32 stepsTotal
 *   i64  x6          OpCounts (zeroSkipped, low4, full8,
 *                    diffCalcElems, summationElems, reusedElems)
 *   tensor           image (f32)
 *   [state section, iff hasState]
 *     u8 primed, u8 approx
 *     u32 nPrevIn,  nPrevIn  tensors (i8)
 *     u32 nPrevOut, nPrevOut tensors (i32)
 *     u32 nConsec,  i32 x nConsec
 *     u32 nSkips,   i64 x nSkips
 *   u64  FNV-1a checksum over every preceding byte
 *
 * with `tensor` = u8 dtype, u8 rank, i64 dims[rank], raw elements.
 *
 * Guarantees:
 *  - Bitwise round-trip: decode(encode(p)) reproduces every field and
 *    every tensor byte exactly (tests/test_shard.cc, committed golden
 *    fixtures per preset x RunMode).
 *  - Back-reference severing: SlabState::backRef (the pin that keeps a
 *    reuse-cache entry alive while a live slot aliases its descent) is
 *    process-local by definition. encode() ignores it and decode()
 *    leaves it null — a decoded state owns its bytes outright.
 *  - Fail loudly, never mis-install: decode() validates the magic,
 *    version, checksum and every tensor header before touching *out,
 *    and returns false with a reason on truncated, corrupted or
 *    version-skewed input. A failed decode leaves *out untouched.
 */
#ifndef DITTO_SHARD_SLAB_CODEC_H
#define DITTO_SHARD_SLAB_CODEC_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/batch_rollout.h"

namespace ditto {
namespace shard {

/** Bumped on any wire-format change; decoders reject other versions. */
inline constexpr uint16_t kSlabCodecVersion = 1;

/** Encode a parked request into a self-contained byte slab. */
std::vector<uint8_t> encodeParked(const BatchEngine::Parked &p);

/**
 * Decode a byte slab. True on success; false with `*why` set on any
 * malformed input (truncated, bad magic, version skew, checksum
 * mismatch, invalid tensor header). *out is only written on success.
 */
bool decodeParked(std::span<const uint8_t> bytes, BatchEngine::Parked *out,
                  std::string *why);

} // namespace shard
} // namespace ditto

#endif // DITTO_SHARD_SLAB_CODEC_H
