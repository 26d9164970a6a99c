// Portable width-W double lanes for the batched fleet kernels.
//
// The lane-batched SoA sweep (fleet/soa_lanes.cpp) advances W nodes per
// vector op. This header wraps the GNU/Clang vector extensions behind a
// tiny fixed surface — broadcast/load/store, IEEE arithmetic, ordered
// comparisons producing bit masks, and bitwise select — and falls back
// to plain per-lane loops on compilers without the extension (or with
// -DFOCV_SIMD_PORTABLE=1), so every build compiles and every build
// computes the SAME bits.
//
// Byte-determinism contract: each lane of every operation here is the
// scalar IEEE-754 double operation, in the order written. There are no
// horizontal reductions, no FMA helpers, and no approximate math; a
// translation unit that pins -ffp-contract=off therefore produces
// bit-identical lane results to the equivalent scalar code. select() is
// a pure bit blend, so masked-off lanes can hold NaN/Inf garbage
// without perturbing live lanes.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

/// Lanes per vector. 8 doubles = one AVX-512 register or two AVX2
/// registers per op on x86-64; baseline builds lower to SSE2 pairs and
/// the portable fallback to unrolled scalar loops.
#ifndef FOCV_SIMD_LANES
#define FOCV_SIMD_LANES 8
#endif

#if defined(__GNUC__) && !defined(FOCV_SIMD_PORTABLE)
#define FOCV_SIMD_VECTOR_EXT 1
#endif

// Hardware-assisted lane ops for the fleet lane kernel's two x86-64
// instances (src/fleet/CMakeLists.txt): W = 4 compiled for AVX2
// (vgatherdpd, vroundpd, vmovmskpd, vpmovmskb) and W = 8 compiled for
// AVX-512 F/DQ/VL/BW (zmm vgatherdpd, vrndscalepd, vpmovq2m, and the
// AVX2 vpcmpeqd/vpmovmskb over the 8 int32 index slots). Each
// intrinsic used below computes bit-identical results to the per-lane
// scalar op it replaces: gathers are plain loads, round-toward-minus-
// infinity equals std::floor, and the mask moves only read sign bits
// for control flow.
#if FOCV_SIMD_VECTOR_EXT && defined(__AVX2__) && FOCV_SIMD_LANES == 4
#define FOCV_SIMD_X86_AVX2 1
#include <immintrin.h>
#elif FOCV_SIMD_VECTOR_EXT && defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__AVX512BW__) && FOCV_SIMD_LANES == 8
#define FOCV_SIMD_X86_AVX512 1
#include <immintrin.h>
#endif

// Each lane width is its own ABI: the fleet links a 4-lane and an
// 8-lane build of the same kernel into one program, so every type and
// template here mangles per width (focv::simd::w4::DVec vs
// focv::simd::w8::DVec). Otherwise a weak out-of-line copy of a helper
// instantiated on DVec in one object could be bound to the other
// width's callers.
#define FOCV_SIMD_NS_CAT2(a, b) a##b
#define FOCV_SIMD_NS_CAT(a, b) FOCV_SIMD_NS_CAT2(a, b)

namespace focv::simd {
inline namespace FOCV_SIMD_NS_CAT(w, FOCV_SIMD_LANES) {

/// Every function here must inline into its caller: an out-of-line
/// copy compiled for the baseline ISA returns/passes W-wide vectors
/// with a different ABI than an AVX2- or AVX-512-targeted caller
/// assumes (memory sret vs register), which scrambles arguments at the
/// call boundary.
/// always_inline makes the helpers vanish into the kernel that uses
/// them, whatever target attribute that kernel carries.
#define FOCV_SIMD_INLINE __attribute__((always_inline)) inline

inline constexpr int kLanes = FOCV_SIMD_LANES;

#if FOCV_SIMD_VECTOR_EXT

namespace detail {
typedef double dnative __attribute__((vector_size(FOCV_SIMD_LANES * 8), aligned(8)));
typedef std::int64_t mnative __attribute__((vector_size(FOCV_SIMD_LANES * 8), aligned(8)));
typedef std::int32_t inative __attribute__((vector_size(FOCV_SIMD_LANES * 4), aligned(4)));
}  // namespace detail

/// W doubles. Arithmetic operators apply the scalar IEEE op per lane.
struct DVec {
  detail::dnative v;
  FOCV_SIMD_INLINE double operator[](int l) const { return v[l]; }
};
/// W 64-bit lane masks (all-ones = true, all-zeros = false per lane).
struct MVec {
  detail::mnative m;
  [[nodiscard]] FOCV_SIMD_INLINE bool lane(int l) const { return m[l] != 0; }
};
/// W 32-bit integers — lane indices on their way to a gather.
struct IVec {
  detail::inative i;
  FOCV_SIMD_INLINE std::int32_t operator[](int l) const { return i[l]; }
};

FOCV_SIMD_INLINE DVec broadcast(double x) { return {x - detail::dnative{}}; }
FOCV_SIMD_INLINE DVec load(const double* p) {
  DVec r;
  std::memcpy(&r.v, p, sizeof(r.v));
  return r;
}
FOCV_SIMD_INLINE void store(double* p, DVec a) { std::memcpy(p, &a.v, sizeof(a.v)); }
FOCV_SIMD_INLINE void store(std::int32_t* p, IVec a) { std::memcpy(p, &a.i, sizeof(a.i)); }

/// static_cast<std::int32_t> per lane (truncation toward zero). The
/// caller must keep every lane in int32 range, exactly like the scalar
/// cast it replaces.
FOCV_SIMD_INLINE IVec to_int(DVec a) { return {__builtin_convertvector(a.v, detail::inative)}; }
/// static_cast<double> per lane — exact for the table-sized ints here.
FOCV_SIMD_INLINE DVec to_double(IVec a) { return {__builtin_convertvector(a.i, detail::dnative)}; }

FOCV_SIMD_INLINE IVec broadcast_i(std::int32_t x) { return {x - detail::inative{}}; }
FOCV_SIMD_INLINE IVec operator+(IVec a, IVec b) { return {a.i + b.i}; }
FOCV_SIMD_INLINE IVec operator*(IVec a, IVec b) { return {a.i * b.i}; }

/// Build a vector as {f(0), f(1), ..., f(W-1)} — lanes assembled by
/// register insertion, never through a stack array. Table gathers MUST
/// use this: a scalar-store/vector-load round-trip defeats store
/// forwarding and stalls the whole gather (~12 cycles each, dozens per
/// interval in the fleet kernel). Braced init evaluates left to right,
/// so f runs in lane order.
template <typename F>
FOCV_SIMD_INLINE DVec from_lanes(F&& f) {
  if constexpr (kLanes == 4) {
    return {detail::dnative{f(0), f(1), f(2), f(3)}};
  } else if constexpr (kLanes == 8) {
    return {detail::dnative{f(0), f(1), f(2), f(3), f(4), f(5), f(6), f(7)}};
  } else {
    DVec r{};
    for (int l = 0; l < kLanes; ++l) r.v[l] = f(l);
    return r;
  }
}

/// base[idx[l]] per lane. One vgatherdpd where the hardware has it;
/// otherwise register-inserted scalar loads. Either way each lane is
/// the identical memory read — a gather cannot change a bit.
FOCV_SIMD_INLINE DVec gather(const double* base, IVec idx) {
#if FOCV_SIMD_X86_AVX2
  // Merge form with a full mask, as below: the same gather as the
  // unmasked wrapper, which GCC 12 seeds with an undefined vector and
  // so trips -Wmaybe-uninitialized under -Wall.
  return {(detail::dnative)_mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base, (__m128i)idx.i,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8)};
#elif FOCV_SIMD_X86_AVX512
  // Merge form with a full mask: the same gather as the unmasked
  // wrapper, which GCC 12 seeds with _mm512_undefined_pd() and so
  // trips -Wmaybe-uninitialized under -Wall.
  return {(detail::dnative)_mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF,
                                                    (__m256i)idx.i, base, 8)};
#else
  return from_lanes([&](int l) { return base[idx[l]]; });
#endif
}

FOCV_SIMD_INLINE DVec operator+(DVec a, DVec b) { return {a.v + b.v}; }
FOCV_SIMD_INLINE DVec operator-(DVec a, DVec b) { return {a.v - b.v}; }
FOCV_SIMD_INLINE DVec operator*(DVec a, DVec b) { return {a.v * b.v}; }
FOCV_SIMD_INLINE DVec operator/(DVec a, DVec b) { return {a.v / b.v}; }

FOCV_SIMD_INLINE MVec operator<(DVec a, DVec b) { return {a.v < b.v}; }
FOCV_SIMD_INLINE MVec operator<=(DVec a, DVec b) { return {a.v <= b.v}; }
FOCV_SIMD_INLINE MVec operator>(DVec a, DVec b) { return {a.v > b.v}; }
FOCV_SIMD_INLINE MVec operator>=(DVec a, DVec b) { return {a.v >= b.v}; }
FOCV_SIMD_INLINE MVec operator==(DVec a, DVec b) { return {a.v == b.v}; }
FOCV_SIMD_INLINE MVec operator!=(DVec a, DVec b) { return {a.v != b.v}; }

FOCV_SIMD_INLINE MVec operator&(MVec a, MVec b) { return {a.m & b.m}; }
FOCV_SIMD_INLINE MVec operator|(MVec a, MVec b) { return {a.m | b.m}; }
FOCV_SIMD_INLINE MVec operator~(MVec a) { return {~a.m}; }
/// Logical not, the same bits as ~: lets a lane-type template spell a
/// negated choice as it would on bool.
FOCV_SIMD_INLINE MVec operator!(MVec a) { return {~a.m}; }

/// Bit blend: lane l takes a where mask lane l is true, else b.
FOCV_SIMD_INLINE DVec select(MVec c, DVec a, DVec b) {
  detail::mnative ab;
  detail::mnative bb;
  std::memcpy(&ab, &a.v, sizeof(ab));
  std::memcpy(&bb, &b.v, sizeof(bb));
  const detail::mnative r = (ab & c.m) | (bb & ~c.m);
  DVec out;
  std::memcpy(&out.v, &r, sizeof(out.v));
  return out;
}

/// std::abs per lane: clears the sign bit, exactly like fabs.
FOCV_SIMD_INLINE DVec abs(DVec x) {
  detail::mnative bits;
  std::memcpy(&bits, &x.v, sizeof(bits));
  bits = bits & (detail::mnative{} + INT64_MAX);
  DVec out;
  std::memcpy(&out.v, &bits, sizeof(out.v));
  return out;
}

/// any/all reduce by shuffle-folding halves — a handful of vector ops
/// and one lane read instead of kLanes sequential extractions. Control
/// flow only; never on the arithmetic state path.
#if FOCV_SIMD_X86_AVX2
FOCV_SIMD_INLINE bool any(MVec c) { return _mm256_movemask_pd((__m256d)c.m) != 0; }
FOCV_SIMD_INLINE bool all(MVec c) { return _mm256_movemask_pd((__m256d)c.m) == 0xF; }
#elif FOCV_SIMD_X86_AVX512
FOCV_SIMD_INLINE bool any(MVec c) { return _mm512_movepi64_mask((__m512i)c.m) != 0; }
FOCV_SIMD_INLINE bool all(MVec c) { return _mm512_movepi64_mask((__m512i)c.m) == 0xFF; }
#elif FOCV_SIMD_LANES == 4
FOCV_SIMD_INLINE bool any(MVec c) {
  const detail::mnative s = c.m | __builtin_shuffle(c.m, detail::mnative{2, 3, 0, 1});
  return (s[0] | s[1]) != 0;
}
FOCV_SIMD_INLINE bool all(MVec c) {
  const detail::mnative s = c.m & __builtin_shuffle(c.m, detail::mnative{2, 3, 0, 1});
  return (s[0] & s[1]) != 0;
}
#elif FOCV_SIMD_LANES == 8
FOCV_SIMD_INLINE bool any(MVec c) {
  detail::mnative s = c.m | __builtin_shuffle(c.m, detail::mnative{4, 5, 6, 7, 0, 1, 2, 3});
  s = s | __builtin_shuffle(s, detail::mnative{2, 3, 0, 1, 6, 7, 4, 5});
  return (s[0] | s[1]) != 0;
}
FOCV_SIMD_INLINE bool all(MVec c) {
  detail::mnative s = c.m & __builtin_shuffle(c.m, detail::mnative{4, 5, 6, 7, 0, 1, 2, 3});
  s = s & __builtin_shuffle(s, detail::mnative{2, 3, 0, 1, 6, 7, 4, 5});
  return (s[0] & s[1]) != 0;
}
#else
FOCV_SIMD_INLINE bool any(MVec c) {
  std::int64_t acc = 0;
  for (int l = 0; l < kLanes; ++l) acc |= c.m[l];
  return acc != 0;
}
FOCV_SIMD_INLINE bool all(MVec c) {
  std::int64_t acc = -1;
  for (int l = 0; l < kLanes; ++l) acc &= c.m[l];
  return acc != 0;
}
#endif

/// True when every lane of `a` equals lane 0 — the lane kernel's test
/// for a block whose table reads all hit one slot. Control flow only.
#if FOCV_SIMD_X86_AVX2
FOCV_SIMD_INLINE bool uniform(IVec a) {
  const __m128i x = (__m128i)a.i;
  return _mm_movemask_epi8(_mm_cmpeq_epi32(x, _mm_shuffle_epi32(x, 0))) == 0xFFFF;
}
#elif FOCV_SIMD_X86_AVX512
FOCV_SIMD_INLINE bool uniform(IVec a) {
  const __m256i x = (__m256i)a.i;
  const __m256i x0 = _mm256_broadcastd_epi32(_mm256_castsi256_si128(x));
  return _mm256_movemask_epi8(_mm256_cmpeq_epi32(x, x0)) == -1;
}
#elif FOCV_SIMD_LANES == 4
FOCV_SIMD_INLINE bool uniform(IVec a) {
  detail::inative s = a.i == (a.i[0] - detail::inative{});
  s = s & __builtin_shuffle(s, detail::inative{2, 3, 0, 1});
  return (s[0] & s[1]) != 0;
}
#elif FOCV_SIMD_LANES == 8
FOCV_SIMD_INLINE bool uniform(IVec a) {
  detail::inative s = a.i == (a.i[0] - detail::inative{});
  s = s & __builtin_shuffle(s, detail::inative{4, 5, 6, 7, 0, 1, 2, 3});
  s = s & __builtin_shuffle(s, detail::inative{2, 3, 0, 1, 6, 7, 4, 5});
  return (s[0] & s[1]) != 0;
}
#else
FOCV_SIMD_INLINE bool uniform(IVec a) {
  std::int32_t diff = 0;
  for (int l = 1; l < kLanes; ++l) diff |= a.i[l] ^ a.i[0];
  return diff == 0;
}
#endif

#else  // portable fallback: identical surface, per-lane loops

struct DVec {
  double v[kLanes];
  FOCV_SIMD_INLINE double operator[](int l) const { return v[l]; }
};
struct MVec {
  std::int64_t m[kLanes];
  [[nodiscard]] FOCV_SIMD_INLINE bool lane(int l) const { return m[l] != 0; }
};
struct IVec {
  std::int32_t i[kLanes];
  FOCV_SIMD_INLINE std::int32_t operator[](int l) const { return i[l]; }
};

FOCV_SIMD_INLINE DVec broadcast(double x) {
  DVec r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = x;
  return r;
}
FOCV_SIMD_INLINE DVec load(const double* p) {
  DVec r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = p[l];
  return r;
}
FOCV_SIMD_INLINE void store(double* p, DVec a) {
  for (int l = 0; l < kLanes; ++l) p[l] = a.v[l];
}
FOCV_SIMD_INLINE void store(std::int32_t* p, IVec a) {
  for (int l = 0; l < kLanes; ++l) p[l] = a.i[l];
}

FOCV_SIMD_INLINE IVec to_int(DVec a) {
  IVec r;
  for (int l = 0; l < kLanes; ++l) r.i[l] = static_cast<std::int32_t>(a.v[l]);
  return r;
}
FOCV_SIMD_INLINE DVec to_double(IVec a) {
  DVec r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = static_cast<double>(a.i[l]);
  return r;
}

FOCV_SIMD_INLINE IVec broadcast_i(std::int32_t x) {
  IVec r;
  for (int l = 0; l < kLanes; ++l) r.i[l] = x;
  return r;
}
FOCV_SIMD_INLINE IVec operator+(IVec a, IVec b) {
  IVec r;
  for (int l = 0; l < kLanes; ++l) r.i[l] = a.i[l] + b.i[l];
  return r;
}
FOCV_SIMD_INLINE IVec operator*(IVec a, IVec b) {
  IVec r;
  for (int l = 0; l < kLanes; ++l) r.i[l] = a.i[l] * b.i[l];
  return r;
}

FOCV_SIMD_INLINE DVec gather(const double* base, IVec idx) {
  DVec r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = base[idx.i[l]];
  return r;
}

template <typename F>
FOCV_SIMD_INLINE DVec from_lanes(F&& f) {
  DVec r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = f(l);
  return r;
}

#define FOCV_SIMD_ARITH(op)                                   \
  inline DVec operator op(DVec a, DVec b) {                   \
    DVec r;                                                   \
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] op b.v[l]; \
    return r;                                                 \
  }
FOCV_SIMD_ARITH(+)
FOCV_SIMD_ARITH(-)
FOCV_SIMD_ARITH(*)
FOCV_SIMD_ARITH(/)
#undef FOCV_SIMD_ARITH

#define FOCV_SIMD_CMP(op)                                                \
  inline MVec operator op(DVec a, DVec b) {                              \
    MVec r;                                                              \
    for (int l = 0; l < kLanes; ++l) r.m[l] = (a.v[l] op b.v[l]) ? -1 : 0; \
    return r;                                                            \
  }
FOCV_SIMD_CMP(<)
FOCV_SIMD_CMP(<=)
FOCV_SIMD_CMP(>)
FOCV_SIMD_CMP(>=)
FOCV_SIMD_CMP(==)
FOCV_SIMD_CMP(!=)
#undef FOCV_SIMD_CMP

FOCV_SIMD_INLINE MVec operator&(MVec a, MVec b) {
  MVec r;
  for (int l = 0; l < kLanes; ++l) r.m[l] = a.m[l] & b.m[l];
  return r;
}
FOCV_SIMD_INLINE MVec operator|(MVec a, MVec b) {
  MVec r;
  for (int l = 0; l < kLanes; ++l) r.m[l] = a.m[l] | b.m[l];
  return r;
}
FOCV_SIMD_INLINE MVec operator~(MVec a) {
  MVec r;
  for (int l = 0; l < kLanes; ++l) r.m[l] = ~a.m[l];
  return r;
}
FOCV_SIMD_INLINE MVec operator!(MVec a) { return ~a; }

FOCV_SIMD_INLINE DVec select(MVec c, DVec a, DVec b) {
  DVec r;
  for (int l = 0; l < kLanes; ++l) {
    std::int64_t ab;
    std::int64_t bb;
    std::memcpy(&ab, &a.v[l], 8);
    std::memcpy(&bb, &b.v[l], 8);
    const std::int64_t bits = (ab & c.m[l]) | (bb & ~c.m[l]);
    std::memcpy(&r.v[l], &bits, 8);
  }
  return r;
}

FOCV_SIMD_INLINE DVec abs(DVec x) {
  DVec r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = std::fabs(x.v[l]);
  return r;
}

FOCV_SIMD_INLINE bool any(MVec c) {
  std::int64_t acc = 0;
  for (int l = 0; l < kLanes; ++l) acc |= c.m[l];
  return acc != 0;
}
FOCV_SIMD_INLINE bool all(MVec c) {
  std::int64_t acc = -1;
  for (int l = 0; l < kLanes; ++l) acc &= c.m[l];
  return acc != 0;
}

FOCV_SIMD_INLINE bool uniform(IVec a) {
  std::int32_t diff = 0;
  for (int l = 1; l < kLanes; ++l) diff |= a.i[l] ^ a.i[0];
  return diff == 0;
}

#endif  // FOCV_SIMD_VECTOR_EXT

/// std::clamp(x, lo, hi) per lane: the same comparison order, so the
/// -0.0 / +0.0 edge behaves exactly like the scalar call.
FOCV_SIMD_INLINE DVec clamp(DVec x, DVec lo, DVec hi) {
  return select(x < lo, lo, select(hi < x, hi, x));
}

/// std::floor per lane.
#if FOCV_SIMD_X86_AVX2
FOCV_SIMD_INLINE DVec floor(DVec x) {
  return {(detail::dnative)_mm256_floor_pd((__m256d)x.v)};
}
#elif FOCV_SIMD_X86_AVX512
// vrndscalepd, all 8 lanes written. The zero-masked form with a full
// mask is the plain op; GCC 12's unmasked wrapper seeds its result
// with _mm512_undefined_pd() and trips -Wuninitialized under -Wall.
FOCV_SIMD_INLINE DVec floor(DVec x) {
  return {(detail::dnative)_mm512_maskz_roundscale_pd(
      0xFF, (__m512d)x.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
}
#elif FOCV_SIMD_VECTOR_EXT
FOCV_SIMD_INLINE DVec floor(DVec x) {
  return from_lanes([&](int l) { return std::floor(x[l]); });
}
#else
FOCV_SIMD_INLINE DVec floor(DVec x) {
  double tmp[kLanes];
  store(tmp, x);
  for (int l = 0; l < kLanes; ++l) tmp[l] = std::floor(tmp[l]);
  return load(tmp);
}
#endif

/// std::sqrt per lane: IEEE square root is correctly rounded, so the
/// vector instruction returns the scalar call's bits.
#if FOCV_SIMD_X86_AVX2
FOCV_SIMD_INLINE DVec sqrt(DVec x) { return {(detail::dnative)_mm256_sqrt_pd((__m256d)x.v)}; }
#elif FOCV_SIMD_X86_AVX512
// Zero-masked with a full mask, for the reason floor() gives above.
FOCV_SIMD_INLINE DVec sqrt(DVec x) {
  return {(detail::dnative)_mm512_maskz_sqrt_pd(0xFF, (__m512d)x.v)};
}
#elif FOCV_SIMD_VECTOR_EXT
FOCV_SIMD_INLINE DVec sqrt(DVec x) {
  return from_lanes([&](int l) { return std::sqrt(x[l]); });
}
#else
FOCV_SIMD_INLINE DVec sqrt(DVec x) {
  DVec r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = std::sqrt(x.v[l]);
  return r;
}
#endif

/// static_cast<double>(static_cast<float>(x)) per lane: round to the
/// nearest float and widen back exactly, like a CurveCache::StepKey
/// weight.
#if FOCV_SIMD_VECTOR_EXT
FOCV_SIMD_INLINE DVec round_to_float(DVec x) {
  typedef float fnative __attribute__((vector_size(FOCV_SIMD_LANES * 4), aligned(4)));
  return {__builtin_convertvector(__builtin_convertvector(x.v, fnative), detail::dnative)};
}
#else
// The float goes through a volatile: GCC 12.2 at -O2 with -mavx2 or
// AVX-512 vectorizes this loop and drops the narrowing/widening pair,
// returning x unrounded.
FOCV_SIMD_INLINE DVec round_to_float(DVec x) {
  DVec r;
  for (int l = 0; l < kLanes; ++l) {
    const volatile float f = static_cast<float>(x.v[l]);
    r.v[l] = f;
  }
  return r;
}
#endif

#undef FOCV_SIMD_INLINE

}  // namespace FOCV_SIMD_NS_CAT(w, FOCV_SIMD_LANES)
}  // namespace focv::simd

#undef FOCV_SIMD_NS_CAT
#undef FOCV_SIMD_NS_CAT2
