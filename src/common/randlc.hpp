#pragma once

#include <cstddef>

namespace npb {

/// The NPB pseudorandom number generator: the linear congruential recurrence
///   x_{k+1} = a * x_k  (mod 2^46)
/// over integers x and a in [1, 2^46), carried in doubles.  Returns
/// x_{k+1} * 2^-46 in (0, 1) and advances `x` in place.
///
/// Evaluated in 64-bit unsigned integers, as NPB's `randi8` generator does:
/// x * a wraps mod 2^64, and because 2^46 divides 2^64 its low 46 bits are
/// x * a mod 2^46.  Every state is an integer below 2^46, so it converts to
/// and from double exactly, and scaling by 2^-46 is exact.  The sequence is
/// therefore bit-identical to NPB's double-precision form (`randdp`, the
/// Fortran RANDLC), which splits x and a into 23-bit halves so that every
/// partial product fits a 53-bit mantissa; that identity is what makes NPB
/// workloads reproducible across languages.
double randlc(double& x, double a) noexcept;

/// Generates `n` consecutive randlc values into y[0..n), advancing `x`.
/// `y` must not alias `x`: the state is written back once, after the loop.
void vranlc(std::size_t n, double& x, double a, double* y) noexcept;

/// Returns `seed` advanced by `steps` draws, seed * a^steps (mod 2^46),
/// without generating the values in between: square-and-multiply over the
/// bits of `steps` (NPB's ipow46 idiom).  Any count works; EP offsets each
/// block by block * 2^17 draws and IS each key slice by 4 * its first key.
double randlc_skip(double seed, double a, unsigned long long steps) noexcept;

/// Default NPB seed and multiplier (5^13).
inline constexpr double kDefaultSeed = 314159265.0;
inline constexpr double kDefaultMultiplier = 1220703125.0;

}  // namespace npb
