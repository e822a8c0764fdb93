/**
 * @file
 * Blocked, parallel kernel implementations.
 *
 * Layout conventions (see docs/kernels.md):
 *  - A panels: kMr rows x KC columns, stored k-major (ap[k*kMr + r])
 *    and zero-padded to kMr rows so the micro-kernel never branches.
 *  - B panels: KC rows x kNr columns, stored k-major (bp[k*kNr + j])
 *    and zero-padded to kNr columns. Zero padding contributes exact
 *    zeros, so fringe tiles stay bit-correct for every element type.
 *  - The K dimension is processed in serial KC-sized blocks; threads
 *    split only the row-panel (M) dimension, so every output element
 *    accumulates in one fixed order regardless of thread count.
 */
#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "tensor/simd/simd.h"

#define DITTO_RESTRICT __restrict__

// Whole-vector widen + shuffle for the convolution panel packer.
#if defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector) && \
    __has_builtin(__builtin_convertvector)
#define DITTO_PANEL_SHUFFLE 1
#endif
#endif

namespace ditto {
namespace kernels {

namespace {

/** Micro-tile rows: output rows accumulated per micro-kernel call. */
constexpr int64_t kMr = 4;
/** Micro-tile columns: one or two SIMD vectors of accumulators. */
constexpr int64_t kNr = 16;

static_assert(kMr == simd::kGemmMr && kNr == simd::kGemmNr,
              "dispatched micro-kernels assume the driver's tile shape");
/** K-dimension cache block (panel depth). */
constexpr int64_t kKc = 256;
/** N-dimension cache block (columns packed per B slab). */
constexpr int64_t kNc = 4096;
/** Elements per chunk for parallel elementwise sweeps. */
constexpr int64_t kElemGrain = 1 << 15;

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

float
siluScalar(float v)
{
    return v / (1.0f + fastExpf(-v));
}

float
geluScalar(float v)
{
    // tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
    constexpr float kC = 0.7978845608028654f; // sqrt(2/pi)
    return 0.5f * v * (1.0f + std::tanh(kC * (v + 0.044715f * v * v * v)));
}

float
applyActivation(float v, Activation act)
{
    switch (act) {
      case Activation::kNone:
        return v;
      case Activation::kSiLU:
        return siluScalar(v);
      case Activation::kGELU:
        return geluScalar(v);
    }
    DITTO_PANIC("unknown Activation");
}

/**
 * Pack one kMr-row panel of A (row-major, leading dim lda), k-major,
 * widening the elements to the accumulator type. Widening here (once
 * per packed element, amortized over a whole row of micro-kernel
 * calls) keeps the micro-kernel arithmetic uniform in TAcc, which is
 * what lets the compiler turn its inner loop into plain vector FMAs /
 * 32-bit multiplies instead of scalar widening sequences.
 */
template <typename TA, typename TAcc>
void
packPanelA(const TA *DITTO_RESTRICT a, int64_t lda, int64_t row0,
           int64_t rows, int64_t k0, int64_t kcs, TAcc *DITTO_RESTRICT ap)
{
    for (int64_t kk = 0; kk < kcs; ++kk) {
        for (int64_t r = 0; r < kMr; ++r) {
            ap[kk * kMr + r] =
                r < rows ? static_cast<TAcc>(a[(row0 + r) * lda + k0 + kk])
                         : TAcc{0};
        }
    }
}

/**
 * The B operand of the blocked GEMM, op(B)[k, n].
 *
 * A dense operand is a row-major matrix: trans_b false reads B[k,n]
 * (b[k*ldb + n]), true reads B[n,k] (b[n*ldb + k], i.e. the operand
 * of a transposed product).
 *
 * A convolution operand (koff set) is the patch matrix of one NCHW
 * slab, read in place instead of built: op(B)[k, n] is
 * b[koff[k] + stride * (oy*ldb + ox)] for output pixel n = oy*ow + ox,
 * where b is the zero-padded input slab with row length ldb and
 * koff[k] the offset of patch element k = (channel, kernel row,
 * kernel column) in OIHW weight order.
 */
template <typename TB>
struct BOperand
{
    const TB *b;
    int64_t ldb;
    bool trans_b = false;
    const int64_t *koff = nullptr;
    int64_t ow = 0;
    int64_t stride = 1;
};

/**
 * Where the kNr columns of one convolution panel sit in every K row of
 * the padded slab. Output pixels on one output row are `stride` apart
 * there, so the columns split into at most kNr runs, one per output
 * row the panel touches: columns [j0, j0 + len) of a run read offsets
 * off, off + stride, ... past the row's patch element.
 */
struct PanelColumns
{
    /** Layouts gatherPanelRow copies without per-column work. */
    enum class Kind { kOneRun, kTwoHalfRuns, kGather };

    struct Run
    {
        int64_t j0, len, off;
    };

    Run runs[kNr];
    int64_t nruns = 0;
    int64_t cols = 0;
    int64_t stride = 1;
    Kind kind = Kind::kGather;
};

/** Geometry of convolution panel columns [col0, col0 + cols). */
template <typename TB>
PanelColumns
convPanelColumns(const BOperand<TB> &op, int64_t col0, int64_t cols)
{
    PanelColumns pc;
    pc.cols = cols;
    pc.stride = op.stride;
    for (int64_t j = 0; j < cols;) {
        const int64_t oy = (col0 + j) / op.ow;
        const int64_t ox = (col0 + j) % op.ow;
        const int64_t len = std::min(cols - j, op.ow - ox);
        pc.runs[pc.nruns++] = {j, len, op.stride * (oy * op.ldb + ox)};
        j += len;
    }
    // A full panel of stride-1 pixels on one output row (16-wide rows
    // and wider) or on two 8-wide output rows.
    if (op.stride == 1 && cols == kNr && pc.nruns == 1)
        pc.kind = PanelColumns::Kind::kOneRun;
    else if (op.stride == 1 && cols == kNr && pc.nruns == 2 &&
             pc.runs[0].len == kNr / 2)
        pc.kind = PanelColumns::Kind::kTwoHalfRuns;
    return pc;
}

/**
 * Copy one K row of a convolution panel, whose patch element sits at
 * `src` in the padded slab, into row[0, kNr), zero past pc.cols.
 */
template <typename TB>
void
gatherPanelRow(const TB *DITTO_RESTRICT src, const PanelColumns &pc,
               TB *DITTO_RESTRICT row)
{
    constexpr int64_t kHalf = kNr / 2;
    switch (pc.kind) {
      case PanelColumns::Kind::kOneRun:
        std::memcpy(row, src + pc.runs[0].off, kNr * sizeof(TB));
        return;
      case PanelColumns::Kind::kTwoHalfRuns:
        std::memcpy(row, src + pc.runs[0].off, kHalf * sizeof(TB));
        std::memcpy(row + kHalf, src + pc.runs[1].off, kHalf * sizeof(TB));
        return;
      case PanelColumns::Kind::kGather:
        break;
    }
    for (int64_t r = 0; r < pc.nruns; ++r) {
        const PanelColumns::Run &run = pc.runs[r];
        for (int64_t t = 0; t < run.len; ++t)
            row[run.j0 + t] = src[run.off + t * pc.stride];
    }
    for (int64_t j = pc.cols; j < kNr; ++j)
        row[j] = TB{0};
}

/**
 * Widen two kNr-long panel rows (K indices k, k+1) to int16 and
 * interleave them into one K pair: dst[2j + s] = row_s[j].
 *
 * GCC and Clang get it as one widening and one two-source shuffle of
 * whole vectors; the auto-vectorizer turns the scalar loop below into
 * per-element code several times slower. Both spell the same copy.
 */
template <typename TB>
void
interleavePair(const TB *DITTO_RESTRICT row0, const TB *DITTO_RESTRICT row1,
               int16_t *DITTO_RESTRICT dst)
{
#ifdef DITTO_PANEL_SHUFFLE
    static_assert(kNr == 16, "the shuffle below is spelled for kNr == 16");
    typedef TB Row __attribute__((vector_size(kNr * sizeof(TB))));
    typedef int16_t Wide
        __attribute__((vector_size(kNr * sizeof(int16_t))));
    typedef int16_t Pair
        __attribute__((vector_size(2 * kNr * sizeof(int16_t))));
    Row a, b;
    std::memcpy(&a, row0, sizeof a);
    std::memcpy(&b, row1, sizeof b);
    const Pair out = __builtin_shufflevector(
        __builtin_convertvector(a, Wide), __builtin_convertvector(b, Wide),
        0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23, 8, 24, 9,
        25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
    std::memcpy(dst, &out, sizeof out);
#else
    for (int64_t j = 0; j < kNr; ++j) {
        dst[2 * j] = static_cast<int16_t>(row0[j]);
        dst[2 * j + 1] = static_cast<int16_t>(row1[j]);
    }
#endif
}

/**
 * Pack one kNr-column panel of op(B) (columns [col0, col0 + cols), K
 * rows [k0, k0 + kcs)), k-major, widened to TAcc.
 */
template <typename TB, typename TAcc>
void
packPanelB(const BOperand<TB> &op, int64_t col0, int64_t cols, int64_t k0,
           int64_t kcs, TAcc *DITTO_RESTRICT bp)
{
    const TB *b = op.b;
    const int64_t ldb = op.ldb;
    if (op.koff) {
        const PanelColumns pc = convPanelColumns(op, col0, cols);
        TB row[kNr] = {};
        for (int64_t kk = 0; kk < kcs; ++kk) {
            gatherPanelRow(b + op.koff[k0 + kk], pc, row);
            for (int64_t j = 0; j < kNr; ++j)
                bp[kk * kNr + j] = static_cast<TAcc>(row[j]);
        }
    } else if (!op.trans_b) {
        for (int64_t kk = 0; kk < kcs; ++kk) {
            const TB *src = b + (k0 + kk) * ldb + col0;
            for (int64_t j = 0; j < kNr; ++j)
                bp[kk * kNr + j] =
                    j < cols ? static_cast<TAcc>(src[j]) : TAcc{0};
        }
    } else {
        for (int64_t j = 0; j < kNr; ++j) {
            if (j < cols) {
                const TB *src = b + (col0 + j) * ldb + k0;
                for (int64_t kk = 0; kk < kcs; ++kk)
                    bp[kk * kNr + j] = static_cast<TAcc>(src[kk]);
            } else {
                for (int64_t kk = 0; kk < kcs; ++kk)
                    bp[kk * kNr + j] = TAcc{0};
            }
        }
    }
}

/**
 * kMr x kNr register tile over a KC block of packed, pre-widened
 * panels: acc[r][j] += ap[k][r] * bp[k][j].
 *
 * On GCC/Clang the kNr-wide accumulator rows are expressed with
 * portable vector extensions — one vector register per row, a
 * broadcast-multiply-accumulate per (k, row) — because the
 * auto-vectorizer otherwise picks the 4-wide row dimension and emits
 * shuffle-heavy code. Element semantics are identical to the scalar
 * fallback (same per-element accumulation order), so results do not
 * depend on which path was compiled in.
 */
template <typename TAcc>
void
microKernel(int64_t kcs, const TAcc *DITTO_RESTRICT ap,
            const TAcc *DITTO_RESTRICT bp, TAcc *DITTO_RESTRICT acc)
{
#if defined(__GNUC__) || defined(__clang__)
    static_assert(kMr == 4, "micro-kernel is unrolled for kMr == 4");
    // aligned(alignof(TAcc)): packed panels come from std::vector, so
    // loads/stores must not assume full vector alignment.
    typedef TAcc Vec __attribute__((vector_size(kNr * sizeof(TAcc)),
                                    aligned(alignof(TAcc))));
    Vec a0{}, a1{}, a2{}, a3{};
    for (int64_t kk = 0; kk < kcs; ++kk) {
        const TAcc *DITTO_RESTRICT arow = ap + kk * kMr;
        const Vec b = *reinterpret_cast<const Vec *>(bp + kk * kNr);
        a0 += b * arow[0];
        a1 += b * arow[1];
        a2 += b * arow[2];
        a3 += b * arow[3];
    }
    *reinterpret_cast<Vec *>(acc + 0 * kNr) += a0;
    *reinterpret_cast<Vec *>(acc + 1 * kNr) += a1;
    *reinterpret_cast<Vec *>(acc + 2 * kNr) += a2;
    *reinterpret_cast<Vec *>(acc + 3 * kNr) += a3;
#else
    for (int64_t kk = 0; kk < kcs; ++kk) {
        const TAcc *DITTO_RESTRICT arow = ap + kk * kMr;
        const TAcc *DITTO_RESTRICT brow = bp + kk * kNr;
        for (int64_t r = 0; r < kMr; ++r) {
            const TAcc av = arow[r];
            for (int64_t j = 0; j < kNr; ++j)
                acc[r * kNr + j] += av * brow[j];
        }
    }
#endif
}

/**
 * Pack one kMr-row panel of A as int16 in K-pair-interleaved order for
 * the dispatched integer micro-kernels (layout in tensor/simd/simd.h):
 * ap[p*2*kMr + r*2 + s] = A[row0 + r, k0 + 2p + s]. The K extent is
 * padded to even with zero pairs (exact zeros), rows to kMr as usual.
 */
template <typename TA>
void
packPanelAPairs(const TA *DITTO_RESTRICT a, int64_t lda, int64_t row0,
                int64_t rows, int64_t k0, int64_t kcs,
                int16_t *DITTO_RESTRICT ap)
{
    const int64_t pairs = (kcs + 1) / 2;
    for (int64_t p = 0; p < pairs; ++p) {
        for (int64_t r = 0; r < kMr; ++r) {
            for (int64_t s = 0; s < 2; ++s) {
                const int64_t kk = 2 * p + s;
                ap[p * 2 * kMr + r * 2 + s] =
                    (r < rows && kk < kcs)
                        ? static_cast<int16_t>(a[(row0 + r) * lda + k0 + kk])
                        : int16_t{0};
            }
        }
    }
}

/**
 * Pack one kNr-column panel of op(B) as int16 in K-pair-interleaved
 * order: bp[p*2*kNr + j*2 + s] = op(B)[k0 + 2p + s, col0 + j]. One
 * 32-bit lane then holds a column's (k, k+1) pair — the operand shape
 * of vpmaddwd / vpdpwssd and of a de-interleaving vld2 on NEON.
 */
template <typename TB>
void
packPanelBPairs(const BOperand<TB> &op, int64_t col0, int64_t cols,
                int64_t k0, int64_t kcs, int16_t *DITTO_RESTRICT bp)
{
    const int64_t pairs = (kcs + 1) / 2;
    if (op.koff) {
        const PanelColumns pc = convPanelColumns(op, col0, cols);
        TB row0[kNr] = {};
        TB row1[kNr] = {};
        for (int64_t p = 0; p < pairs; ++p) {
            const int64_t kk = 2 * p;
            gatherPanelRow(op.b + op.koff[k0 + kk], pc, row0);
            // An odd block's last pair pads with zeros.
            if (kk + 1 < kcs)
                gatherPanelRow(op.b + op.koff[k0 + kk + 1], pc, row1);
            else
                std::fill(row1, row1 + kNr, TB{0});
            interleavePair(row0, row1, bp + p * 2 * kNr);
        }
        return;
    }
    const TB *b = op.b;
    const int64_t ldb = op.ldb;
    const bool trans_b = op.trans_b;
    for (int64_t p = 0; p < pairs; ++p) {
        for (int64_t j = 0; j < kNr; ++j) {
            for (int64_t s = 0; s < 2; ++s) {
                const int64_t kk = 2 * p + s;
                int16_t v = 0;
                if (j < cols && kk < kcs)
                    v = static_cast<int16_t>(
                        trans_b ? b[(col0 + j) * ldb + k0 + kk]
                                : b[(k0 + kk) * ldb + col0 + j]);
                bp[p * 2 * kNr + j * 2 + s] = v;
            }
        }
    }
}

/**
 * Integer-GEMM driver over pair-packed int16 panels, used when the
 * active SIMD table provides a hand-written pair micro-kernel. Same
 * blocking, same thread split, and — because int32 accumulation is
 * exact under any association (two's-complement addition is
 * associative even across wraparound) — bitwise-identical output to
 * the generic driver for every integer instantiation.
 */
template <typename TA, typename TB>
void
gemmDriverPairs(const TA *a, int64_t lda, const BOperand<TB> &bop,
                int32_t *c, int64_t ldc, int64_t m, int64_t n, int64_t k,
                void (*micro)(int64_t, const int16_t *, const int16_t *,
                              int32_t *))
{
    const int64_t row_panels = ceilDiv(m, kMr);
    std::vector<int16_t> bpack;
    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t ncs = std::min(kNc, n - jc);
        const int64_t col_panels = ceilDiv(ncs, kNr);
        for (int64_t kc = 0; kc < k; kc += kKc) {
            const int64_t kcs = std::min(kKc, k - kc);
            const int64_t pairs = (kcs + 1) / 2;
            bpack.resize(static_cast<size_t>(col_panels * kNr * 2 * pairs));
            int16_t *bpack_data = bpack.data();
            parallelFor(0, col_panels, [&](int64_t lo, int64_t hi) {
                for (int64_t cp = lo; cp < hi; ++cp) {
                    packPanelBPairs(bop, jc + cp * kNr,
                                    std::min(kNr, ncs - cp * kNr), kc, kcs,
                                    bpack_data + cp * kNr * 2 * pairs);
                }
            });
            parallelFor(0, row_panels, [&](int64_t lo, int64_t hi) {
                thread_local std::vector<int16_t> apack;
                apack.resize(static_cast<size_t>(kMr * 2 * pairs));
                for (int64_t rp = lo; rp < hi; ++rp) {
                    const int64_t row0 = rp * kMr;
                    const int64_t rows = std::min(kMr, m - row0);
                    packPanelAPairs(a, lda, row0, rows, kc, kcs,
                                    apack.data());
                    for (int64_t cp = 0; cp < col_panels; ++cp) {
                        int32_t acc[kMr * kNr] = {};
                        micro(pairs, apack.data(),
                              bpack_data + cp * kNr * 2 * pairs, acc);
                        const int64_t col0 = jc + cp * kNr;
                        const int64_t cols = std::min(kNr, ncs - cp * kNr);
                        for (int64_t r = 0; r < rows; ++r) {
                            int32_t *crow = c + (row0 + r) * ldc + col0;
                            for (int64_t j = 0; j < cols; ++j)
                                crow[j] += acc[r * kNr + j];
                        }
                    }
                }
            });
        }
    }
}

/**
 * Blocked GEMM on raw row-major buffers: C += A * op(B), with an
 * optional fused bias/activation epilogue for float accumulators.
 *
 * C must be zero-initialized (freshly constructed tensors are).
 * When bias_per_row is false the bias indexes columns (fully-connected
 * convention); when true it indexes rows (conv output channels).
 */
template <typename TA, typename TB, typename TAcc>
void
gemmDriver(const TA *a, int64_t lda, const BOperand<TB> &bop, TAcc *c,
           int64_t ldc, int64_t m, int64_t n, int64_t k,
           const float *bias = nullptr,
           bool bias_per_row = false, Activation act = Activation::kNone)
{
    // Integer products route through the dispatched pair micro-kernel
    // when the active SIMD level provides one; the generic level keeps
    // gemmMicroPairs null, so DITTO_SIMD=generic (and any host without
    // hand-written kernels) runs the historic path below verbatim.
    // Float stays on the generic micro-kernel unconditionally: its
    // accumulation order is part of the output contract.
    if constexpr (std::is_integral_v<TA> && std::is_integral_v<TB> &&
                  std::is_same_v<TAcc, int32_t>) {
        if (auto *micro = simd::active().gemmMicroPairs;
            micro && !bias && act == Activation::kNone) {
            gemmDriverPairs<TA, TB>(a, lda, bop, c, ldc, m, n, k, micro);
            return;
        }
    }
    const int64_t row_panels = ceilDiv(m, kMr);
    std::vector<TAcc> bpack;
    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t ncs = std::min(kNc, n - jc);
        const int64_t col_panels = ceilDiv(ncs, kNr);
        for (int64_t kc = 0; kc < k; kc += kKc) {
            const int64_t kcs = std::min(kKc, k - kc);
            const bool last_kc = kc + kcs == k;
            bpack.resize(static_cast<size_t>(col_panels * kNr * kcs));
            TAcc *bpack_data = bpack.data();
            parallelFor(0, col_panels, [&](int64_t lo, int64_t hi) {
                for (int64_t cp = lo; cp < hi; ++cp) {
                    packPanelB(bop, jc + cp * kNr,
                               std::min(kNr, ncs - cp * kNr), kc, kcs,
                               bpack_data + cp * kNr * kcs);
                }
            });
            parallelFor(0, row_panels, [&](int64_t lo, int64_t hi) {
                thread_local std::vector<TAcc> apack;
                apack.resize(static_cast<size_t>(kMr * kcs));
                for (int64_t rp = lo; rp < hi; ++rp) {
                    const int64_t row0 = rp * kMr;
                    const int64_t rows = std::min(kMr, m - row0);
                    packPanelA(a, lda, row0, rows, kc, kcs, apack.data());
                    for (int64_t cp = 0; cp < col_panels; ++cp) {
                        TAcc acc[kMr * kNr] = {};
                        microKernel(kcs, apack.data(),
                                    bpack_data + cp * kNr * kcs, acc);
                        const int64_t col0 = jc + cp * kNr;
                        const int64_t cols = std::min(kNr, ncs - cp * kNr);
                        for (int64_t r = 0; r < rows; ++r) {
                            TAcc *crow = c + (row0 + r) * ldc + col0;
                            for (int64_t j = 0; j < cols; ++j)
                                crow[j] += acc[r * kNr + j];
                            if constexpr (std::is_same_v<TAcc, float>) {
                                // Fused epilogue once the K reduction
                                // for these columns is complete.
                                if (last_kc &&
                                    (bias || act != Activation::kNone)) {
                                    for (int64_t j = 0; j < cols; ++j) {
                                        float v = crow[j];
                                        if (bias)
                                            v += bias_per_row
                                                     ? bias[row0 + r]
                                                     : bias[col0 + j];
                                        crow[j] = applyActivation(v, act);
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
    }
}

/** Shape checks + driver dispatch for the matrix entry points. */
template <typename TA, typename TB, typename TAcc>
Tensor<TAcc>
gemmTensor(const Tensor<TA> &a, const Tensor<TB> &b, bool trans_b,
           const FloatTensor *bias = nullptr,
           Activation act = Activation::kNone)
{
    DITTO_ASSERT(a.shape().rank() == 2 && b.shape().rank() == 2,
                 "gemm operands must be matrices");
    const int64_t m = a.shape()[0];
    const int64_t k = a.shape()[1];
    const int64_t n = trans_b ? b.shape()[0] : b.shape()[1];
    const int64_t inner = trans_b ? b.shape()[1] : b.shape()[0];
    DITTO_ASSERT(inner == k, "gemm inner dimensions mismatch");
    if (bias)
        DITTO_ASSERT(bias->numel() == n, "gemm bias size mismatch");
    Tensor<TAcc> c(Shape{m, n});
    gemmDriver<TA, TB, TAcc>(a.data().data(), k,
                             {b.data().data(), trans_b ? k : n, trans_b},
                             c.data().data(), n, m, n, k,
                             bias ? bias->data().data() : nullptr,
                             /*bias_per_row=*/false, act);
    return c;
}

/**
 * Copy one NCHW slab [cin, h, w] into `out` [cin, h + 2*pad, w + 2*pad]
 * with a zero border `pad` wide, so every kernel window of a padded
 * convolution reads in bounds.
 */
template <typename T>
void
padSlab(const T *DITTO_RESTRICT in, int64_t cin, int64_t h, int64_t w,
        int64_t pad, T *DITTO_RESTRICT out)
{
    const int64_t wp = w + 2 * pad;
    const int64_t plane = (h + 2 * pad) * wp;
    for (int64_t ic = 0; ic < cin; ++ic) {
        T *dst = out + ic * plane;
        std::fill(dst, dst + pad * wp, T{0});
        dst += pad * wp;
        for (int64_t y = 0; y < h; ++y, dst += wp) {
            const T *src = in + (ic * h + y) * w;
            std::fill(dst, dst + pad, T{0});
            std::copy(src, src + w, dst + pad);
            std::fill(dst + pad + w, dst + wp, T{0});
        }
        std::fill(dst, dst + pad * wp, T{0});
    }
}

/**
 * Convolution of the batch range [batch0, batch0 + batches) of a
 * stacked NCHW input, lowered onto the blocked GEMM and written into
 * the same slabs of `out`: out[b] (viewed as [cout, oh*ow]) =
 * W[cout, K] * P[b], where P[b] is slab b's [K, oh*ow] patch matrix.
 *
 * P[b] is never built: the B packers read each panel straight from
 * the slab through a per-K offset table (implicit GEMM). Padded convs
 * first copy the slab once into a zero-bordered scratch slab, so the
 * packers need no bounds checks. 1x1/stride-1/pad-0 convolutions feed
 * the input slab [cin, h*w] to the dense packer as-is: it already is
 * P[b] in row-major order.
 *
 * Multi-slab ranges run slab by slab, parallelized across slabs when
 * there are enough to occupy the pool (see the comment at the batch
 * loop for why slabs are not folded into one driver call).
 */
template <typename TIn, typename TW, typename TAcc>
void
convBlockedInto(const Tensor<TIn> &input, const Tensor<TW> &weight,
                const FloatTensor *bias, const Conv2dParams &p,
                Activation act, int64_t batch0, int64_t batches,
                Tensor<TAcc> *out)
{
    DITTO_ASSERT(input.shape().rank() == 4, "conv input must be NCHW");
    DITTO_ASSERT(weight.shape().rank() == 4, "conv weight must be OIHW");
    const int64_t total_batches = input.shape()[0];
    const int64_t cin = input.shape()[1];
    const int64_t h = input.shape()[2];
    const int64_t w = input.shape()[3];
    DITTO_ASSERT(batch0 >= 0 && batches >= 0 &&
                 batch0 + batches <= total_batches,
                 "conv batch range out of bounds");
    DITTO_ASSERT(cin == p.inChannels, "conv input channels mismatch");
    DITTO_ASSERT(weight.shape()[0] == p.outChannels &&
                 weight.shape()[1] == p.inChannels &&
                 weight.shape()[2] == p.kernel &&
                 weight.shape()[3] == p.kernel,
                 "conv weight shape mismatch");
    const int64_t oh = p.outExtent(h);
    const int64_t ow = p.outExtent(w);
    DITTO_ASSERT(oh > 0 && ow > 0, "conv output would be empty");
    DITTO_ASSERT(out->shape() ==
                 Shape({total_batches, p.outChannels, oh, ow}),
                 "conv output shape mismatch");
    if (bias)
        DITTO_ASSERT(bias->numel() == p.outChannels,
                     "conv bias size mismatch");

    const int64_t pix = oh * ow;
    const int64_t patch = cin * p.kernel * p.kernel;
    const bool pointwise =
        p.kernel == 1 && p.stride == 1 && p.padding == 0;
    const TW *wmat = weight.data().data();
    const float *bias_data = bias ? bias->data().data() : nullptr;
    const TIn *in0 = input.data().data() + batch0 * cin * h * w;
    TAcc *out0 = out->data().data() + batch0 * p.outChannels * pix;

    // Patch element k = (ic, ky, kx) sits koff[k] past a window's
    // top-left corner in the (padded) slab.
    const int64_t hp = h + 2 * p.padding;
    const int64_t wp = w + 2 * p.padding;
    std::vector<int64_t> koff;
    if (!pointwise) {
        koff.resize(static_cast<size_t>(patch));
        for (int64_t ic = 0, k = 0; ic < cin; ++ic)
            for (int64_t ky = 0; ky < p.kernel; ++ky)
                for (int64_t kx = 0; kx < p.kernel; ++kx)
                    koff[static_cast<size_t>(k++)] = (ic * hp + ky) * wp + kx;
    }

    // Each slab runs its own GEMM. A single column-folded driver call
    // over all slabs was tried here and measured *slower*: its packed-B
    // working set (batches * pix * patch widened elements) falls out of
    // L1/L2 exactly when batching matters, while the per-slab pack stays
    // cache-resident. Batch amortization comes from the slab-parallel
    // dispatch below and from the row-folded GEMMs of the token-matrix
    // layers instead.
    auto runBatch = [&](int64_t b) {
        const TIn *in_slab = in0 + b * cin * h * w;
        TAcc *out_slab = out0 + b * p.outChannels * pix;
        BOperand<TIn> bop{in_slab, pix};
        if (!pointwise) {
            if (p.padding > 0) {
                // Per thread: slab-parallel workers each pad their own.
                thread_local std::vector<TIn> padded;
                padded.resize(static_cast<size_t>(cin * hp * wp));
                padSlab(in_slab, cin, h, w, p.padding, padded.data());
                bop.b = padded.data();
            }
            bop.ldb = wp;
            bop.koff = koff.data();
            bop.ow = ow;
            bop.stride = p.stride;
        }
        gemmDriver<TW, TIn, TAcc>(wmat, patch, bop, out_slab, pix,
                                  p.outChannels, pix, patch, bias_data,
                                  /*bias_per_row=*/true, act);
    };
    // Pick the parallel level by shape: enough batches to occupy the
    // pool -> parallelize across batches (inner parallelFor calls run
    // inline on the workers); few batches -> keep the batch loop
    // serial and exploit the parallelism over the GEMM's column and
    // row panels. Either way each output element is produced by the
    // same fixed accumulation order, so results are identical.
    if (batches >= threadCount() && batches > 1) {
        parallelFor(0, batches, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t b = lo; b < hi; ++b)
                runBatch(b);
        });
    } else {
        for (int64_t b = 0; b < batches; ++b)
            runBatch(b);
    }
}

template <typename TIn, typename TW, typename TAcc>
Tensor<TAcc>
convBlocked(const Tensor<TIn> &input, const Tensor<TW> &weight,
            const FloatTensor *bias, const Conv2dParams &p,
            Activation act = Activation::kNone)
{
    DITTO_ASSERT(input.shape().rank() == 4, "conv input must be NCHW");
    const int64_t batches = input.shape()[0];
    const int64_t oh = p.outExtent(input.shape()[2]);
    const int64_t ow = p.outExtent(input.shape()[3]);
    DITTO_ASSERT(oh > 0 && ow > 0, "conv output would be empty");
    Tensor<TAcc> out(Shape{batches, p.outChannels, oh, ow});
    convBlockedInto(input, weight, bias, p, act, 0, batches, &out);
    return out;
}

/** Parallel elementwise binary kernel. */
template <typename T, typename Fn>
Tensor<T>
zipWithParallel(const Tensor<T> &a, const Tensor<T> &b, Fn fn)
{
    DITTO_ASSERT(a.shape() == b.shape(), "elementwise shape mismatch");
    Tensor<T> out(a.shape());
    const T *DITTO_RESTRICT sa = a.data().data();
    const T *DITTO_RESTRICT sb = b.data().data();
    T *DITTO_RESTRICT so = out.data().data();
    parallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            so[i] = fn(sa[i], sb[i]);
    });
    return out;
}

/** Parallel elementwise unary kernel. */
template <typename T, typename Fn>
Tensor<T>
mapParallel(const Tensor<T> &x, Fn fn)
{
    Tensor<T> out(x.shape());
    const T *DITTO_RESTRICT sx = x.data().data();
    T *DITTO_RESTRICT so = out.data().data();
    parallelFor(0, x.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            so[i] = fn(sx[i]);
    });
    return out;
}

/**
 * Normalize `count` contiguous values with a single fused
 * sum/sum-of-squares sweep (vs the naive references' three passes).
 */
void
normalizeSpan(const float *DITTO_RESTRICT src, float *DITTO_RESTRICT dst,
              int64_t count, float eps)
{
    double sum = 0.0;
    double sumsq = 0.0;
    for (int64_t i = 0; i < count; ++i) {
        const double v = src[i];
        sum += v;
        sumsq += v * v;
    }
    const double mean = sum / static_cast<double>(count);
    const double var =
        std::max(0.0, sumsq / static_cast<double>(count) - mean * mean);
    const float fmean = static_cast<float>(mean);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    for (int64_t i = 0; i < count; ++i)
        dst[i] = (src[i] - fmean) * inv;
}

} // namespace

FloatTensor
gemm(const FloatTensor &a, const FloatTensor &b, bool transpose_b,
     const FloatTensor *bias, Activation act)
{
    return gemmTensor<float, float, float>(a, b, transpose_b, bias, act);
}

Int32Tensor
gemmInt8(const Int8Tensor &a, const Int8Tensor &b, bool transpose_b)
{
    return gemmTensor<int8_t, int8_t, int32_t>(a, b, transpose_b);
}

Int32Tensor
gemmDiffInt16(const Int16Tensor &a, const Int8Tensor &b, bool transpose_b)
{
    return gemmTensor<int16_t, int8_t, int32_t>(a, b, transpose_b);
}

FloatTensor
conv2d(const FloatTensor &input, const FloatTensor &weight,
       const FloatTensor *bias, const Conv2dParams &params, Activation act)
{
    return convBlocked<float, float, float>(input, weight, bias, params,
                                            act);
}

Int32Tensor
conv2dInt8(const Int8Tensor &input, const Int8Tensor &weight,
           const Conv2dParams &params)
{
    return convBlocked<int8_t, int8_t, int32_t>(input, weight, nullptr,
                                                params);
}

void
gemmInt8Into(const int8_t *a, int64_t m, int64_t k, const int8_t *b,
             int64_t n, bool trans_b, int32_t *c)
{
    gemmDriver<int8_t, int8_t, int32_t>(a, k, {b, trans_b ? k : n, trans_b},
                                        c, n, m, n, k);
}

void
conv2dInt8Into(const Int8Tensor &input, const Int8Tensor &weight,
               const Conv2dParams &params, int64_t batch0, int64_t batches,
               Int32Tensor *out)
{
    convBlockedInto<int8_t, int8_t, int32_t>(input, weight, nullptr,
                                             params, Activation::kNone,
                                             batch0, batches, out);
}

Int32Tensor
conv2dDiffInt16(const Int16Tensor &input, const Int8Tensor &weight,
                const Conv2dParams &params)
{
    return convBlocked<int16_t, int8_t, int32_t>(input, weight, nullptr,
                                                 params);
}

FloatTensor
add(const FloatTensor &a, const FloatTensor &b)
{
    return zipWithParallel<float>(a, b,
                                  [](float x, float y) { return x + y; });
}

FloatTensor
subtract(const FloatTensor &a, const FloatTensor &b)
{
    return zipWithParallel<float>(a, b,
                                  [](float x, float y) { return x - y; });
}

FloatTensor
multiply(const FloatTensor &a, const FloatTensor &b)
{
    return zipWithParallel<float>(a, b,
                                  [](float x, float y) { return x * y; });
}

FloatTensor
affine(const FloatTensor &x, float scale, float shift)
{
    return mapParallel<float>(
        x, [scale, shift](float v) { return v * scale + shift; });
}

FloatTensor
silu(const FloatTensor &x)
{
    return mapParallel<float>(x, siluScalar);
}

FloatTensor
gelu(const FloatTensor &x)
{
    return mapParallel<float>(x, geluScalar);
}

FloatTensor
softmaxRows(const FloatTensor &x)
{
    DITTO_ASSERT(x.shape().rank() == 2, "softmaxRows expects a matrix");
    const int64_t n = x.shape()[0];
    const int64_t d = x.shape()[1];
    FloatTensor out(x.shape());
    const float *sx = x.data().data();
    float *so = out.data().data();
    parallelFor(0, n, [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
            const float *DITTO_RESTRICT row = sx + r * d;
            float *DITTO_RESTRICT orow = so + r * d;
            float mx = row[0];
            for (int64_t c = 1; c < d; ++c)
                mx = std::max(mx, row[c]);
            float sum = 0.0f;
            for (int64_t c = 0; c < d; ++c) {
                const float e = fastExpf(row[c] - mx);
                orow[c] = e;
                sum += e;
            }
            for (int64_t c = 0; c < d; ++c)
                orow[c] /= sum;
        }
    });
    return out;
}

FloatTensor
groupNorm(const FloatTensor &x, int64_t groups, float eps)
{
    DITTO_ASSERT(x.shape().rank() == 4, "groupNorm expects NCHW");
    const int64_t n = x.shape()[0];
    const int64_t c = x.shape()[1];
    const int64_t h = x.shape()[2];
    const int64_t w = x.shape()[3];
    DITTO_ASSERT(groups > 0 && c % groups == 0,
                 "groups must divide channel count");
    const int64_t span = (c / groups) * h * w; // one group is contiguous
    FloatTensor out(x.shape());
    const float *sx = x.data().data();
    float *so = out.data().data();
    parallelFor(0, n * groups, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            normalizeSpan(sx + i * span, so + i * span, span, eps);
    });
    return out;
}

FloatTensor
layerNorm(const FloatTensor &x, float eps)
{
    DITTO_ASSERT(x.shape().rank() == 2, "layerNorm expects a matrix");
    const int64_t n = x.shape()[0];
    const int64_t d = x.shape()[1];
    FloatTensor out(x.shape());
    const float *sx = x.data().data();
    float *so = out.data().data();
    parallelFor(0, n, [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r)
            normalizeSpan(sx + r * d, so + r * d, d, eps);
    });
    return out;
}

Int32Tensor
addInt32(const Int32Tensor &a, const Int32Tensor &b)
{
    return zipWithParallel<int32_t>(
        a, b, [](int32_t x, int32_t y) { return x + y; });
}

Int16Tensor
subtractInt8(const Int8Tensor &a, const Int8Tensor &b)
{
    DITTO_ASSERT(a.shape() == b.shape(), "difference shape mismatch");
    Int16Tensor out(a.shape());
    const int8_t *DITTO_RESTRICT sa = a.data().data();
    const int8_t *DITTO_RESTRICT sb = b.data().data();
    int16_t *DITTO_RESTRICT so = out.data().data();
    parallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            so[i] = static_cast<int16_t>(static_cast<int16_t>(sa[i]) -
                                         static_cast<int16_t>(sb[i]));
    });
    return out;
}

} // namespace kernels
} // namespace ditto
