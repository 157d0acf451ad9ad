// Tests for the serial FFT core and the distributed (SWFFT-analog) FFT.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "comm/world.h"
#include "fft/distributed_fft.h"
#include "fft/fft.h"
#include "util/rng.h"

namespace crkhacc::fft {
namespace {

constexpr double kPi = std::numbers::pi;

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Complex> signal(n);
  for (auto& v : signal) {
    v = Complex(rng.next_double() - 0.5, rng.next_double() - 0.5);
  }
  return signal;
}

/// Direct O(n^2) DFT reference.
std::vector<Complex> dft_reference(const std::vector<Complex>& in, bool inverse) {
  const std::size_t n = in.size();
  std::vector<Complex> out(n, Complex(0, 0));
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * kPi * static_cast<double>(k * j) /
                           static_cast<double>(n);
      out[k] += in[j] * Complex(std::cos(angle), std::sin(angle));
    }
    if (inverse) out[k] /= static_cast<double>(n);
  }
  return out;
}

TEST(FftHelpers, Pow2Predicates) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(63), 64u);
  EXPECT_EQ(next_pow2(64), 64u);
}

TEST(FftHelpers, FrequencyConvention) {
  EXPECT_EQ(freq_of(0, 8), 0);
  EXPECT_EQ(freq_of(3, 8), 3);
  EXPECT_EQ(freq_of(4, 8), 4);   // Nyquist stays positive
  EXPECT_EQ(freq_of(5, 8), -3);
  EXPECT_EQ(freq_of(7, 8), -1);
}

class Fft1dTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1dTest, MatchesDirectDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 17);
  const auto expected = dft_reference(signal, false);
  transform(signal, false);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(signal[k].real(), expected[k].real(), 1e-9 * n);
    EXPECT_NEAR(signal[k].imag(), expected[k].imag(), 1e-9 * n);
  }
}

TEST_P(Fft1dTest, InverseRecoversInput) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 23);
  auto signal = original;
  transform(signal, false);
  transform(signal, true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(signal[i].real(), original[i].real(), 1e-10 * n);
    EXPECT_NEAR(signal[i].imag(), original[i].imag(), 1e-10 * n);
  }
}

TEST_P(Fft1dTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 31);
  double time_energy = 0.0;
  for (const auto& v : signal) time_energy += std::norm(v);
  transform(signal, false);
  double freq_energy = 0.0;
  for (const auto& v : signal) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-8 * n);
}

// Power-of-two sizes take the radix-2 path; others exercise Bluestein.
INSTANTIATE_TEST_SUITE_P(Sizes, Fft1dTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 3, 5, 6, 7, 12,
                                           15, 100, 63));

TEST(Fft1d, DeltaFunctionGivesFlatSpectrum) {
  std::vector<Complex> signal(16, Complex(0, 0));
  signal[0] = Complex(1, 0);
  transform(signal, false);
  for (const auto& v : signal) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, SingleModeLandsInRightBin) {
  const std::size_t n = 32;
  std::vector<Complex> signal(n);
  const std::size_t mode = 5;
  for (std::size_t j = 0; j < n; ++j) {
    const double angle = 2.0 * kPi * static_cast<double>(mode * j) / n;
    signal[j] = Complex(std::cos(angle), std::sin(angle));
  }
  transform(signal, false);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = (k == mode) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(signal[k].real(), expected, 1e-9);
    EXPECT_NEAR(signal[k].imag(), 0.0, 1e-9);
  }
}

TEST(Fft3d, RoundTrip) {
  const std::size_t nx = 8, ny = 4, nz = 6;
  auto original = random_signal(nx * ny * nz, 41);
  auto data = original;
  transform_3d(data, nx, ny, nz, false);
  transform_3d(data, nx, ny, nz, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

// --- distributed ------------------------------------------------------------

class DistributedFftTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedFftTest, MatchesSerial3dTransform) {
  const int p = GetParam();
  const std::size_t n = 8;
  // Serial reference on the full cube.
  auto reference = random_signal(n * n * n, 53);
  auto expected = reference;
  transform_3d(expected, n, n, n, false);

  comm::World world(p);
  world.run([&](comm::Communicator& comm) {
    DistributedFFT dfft(comm, n);
    // Fill the local z-slab from the global reference array.
    const std::size_t z0 = dfft.local_z_start();
    for (std::size_t zl = 0; zl < dfft.local_z_count(); ++zl) {
      for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x < n; ++x) {
          dfft.real_data()[dfft.real_index(zl, y, x)] =
              reference[((z0 + zl) * n + y) * n + x];
        }
      }
    }
    dfft.forward();
    // Compare the local k-slab against the serial transform.
    const std::size_t kx0 = dfft.local_kx_start();
    for (std::size_t xl = 0; xl < dfft.local_kx_count(); ++xl) {
      for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t z = 0; z < n; ++z) {
          const auto& got = dfft.k_data()[dfft.k_index(xl, y, z)];
          const auto& want = expected[(z * n + y) * n + (kx0 + xl)];
          ASSERT_NEAR(got.real(), want.real(), 1e-9);
          ASSERT_NEAR(got.imag(), want.imag(), 1e-9);
        }
      }
    }
  });
}

TEST_P(DistributedFftTest, RoundTripAcrossRanks) {
  const int p = GetParam();
  const std::size_t n = 12;  // non-power-of-two exercises Bluestein
  comm::World world(p);
  world.run([&](comm::Communicator& comm) {
    DistributedFFT dfft(comm, n);
    SplitMix64 rng(1000 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<Complex> original(dfft.real_data().size());
    for (auto& v : original) {
      v = Complex(rng.next_double(), rng.next_double());
    }
    dfft.real_data() = original;
    dfft.forward();
    dfft.backward();
    for (std::size_t i = 0; i < original.size(); ++i) {
      ASSERT_NEAR(dfft.real_data()[i].real(), original[i].real(), 1e-9);
      ASSERT_NEAR(dfft.real_data()[i].imag(), original[i].imag(), 1e-9);
    }
  });
}

// Half-spectrum (r2c / c2r) transforms on odd (5, Bluestein), radix-2 (8)
// and even Bluestein (12) grids; 8 ranks exceed n/2 + 1 on all three, so
// some ranks own no half-spectrum columns.
constexpr std::size_t kHalfSpectrumSizes[] = {5, 8, 12};

TEST_P(DistributedFftTest, HalfSpectrumForwardMatchesComplexForward) {
  const int p = GetParam();
  for (const std::size_t n : kHalfSpectrumSizes) {
    SplitMix64 rng(61 + n);
    std::vector<double> field(n * n * n);
    for (auto& v : field) v = rng.next_double() - 0.5;
    std::vector<Complex> expected(field.begin(), field.end());
    transform_3d(expected, n, n, n, false);

    comm::World world(p);
    world.run([&](comm::Communicator& comm) {
      DistributedFFT dfft(comm, n);
      const std::size_t z0 = dfft.local_z_start();
      auto& local = dfft.real_field();
      ASSERT_EQ(local.size(), dfft.local_z_count() * n * n);
      std::copy(field.begin() + static_cast<std::ptrdiff_t>(z0 * n * n),
                field.begin() + static_cast<std::ptrdiff_t>(
                                    (z0 + dfft.local_z_count()) * n * n),
                local.begin());
      const std::vector<double> original = local;
      dfft.forward_real();
      const std::size_t kx0 = dfft.local_half_start();
      ASSERT_EQ(dfft.half_k_data().size(), dfft.local_half_count() * n * n);
      for (std::size_t xl = 0; xl < dfft.local_half_count(); ++xl) {
        ASSERT_LE(kx0 + xl, n / 2);
        for (std::size_t y = 0; y < n; ++y) {
          for (std::size_t z = 0; z < n; ++z) {
            const auto& got = dfft.half_k_data()[dfft.k_index(xl, y, z)];
            const auto& want = expected[(z * n + y) * n + (kx0 + xl)];
            ASSERT_NEAR(got.real(), want.real(), 1e-9) << "n=" << n;
            ASSERT_NEAR(got.imag(), want.imag(), 1e-9) << "n=" << n;
          }
        }
      }
      // And back: c2r of an r2c spectrum recovers the field.
      dfft.backward_real();
      for (std::size_t i = 0; i < original.size(); ++i) {
        ASSERT_NEAR(dfft.real_field()[i], original[i], 1e-12) << "n=" << n;
      }
    });
  }
}

TEST_P(DistributedFftTest, C2rEqualsRealPartOfComplexInverse) {
  // A random half spectrum is not Hermitian on its kx = 0 and kx = n/2
  // planes (nor is -i k_d phi_k on a Nyquist plane). The c2r inverse must
  // still equal the real part of the complex inverse of the full spectrum
  // whose kx > n/2 half is the conjugate mirror of the given one.
  const int p = GetParam();
  for (const std::size_t n : kHalfSpectrumSizes) {
    const std::size_t nh = n / 2 + 1;
    auto half = random_signal(nh * n * n, 67 + n);  // (kx, y, z), z fastest
    std::vector<Complex> full(n * n * n);           // (z, y, x), x fastest
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t z = 0; z < n; ++z) {
          full[(z * n + y) * n + x] =
              x < nh ? half[(x * n + y) * n + z]
                     : std::conj(half[((n - x) * n + (n - y) % n) * n +
                                      (n - z) % n]);
        }
      }
    }
    transform_3d(full, n, n, n, true);

    comm::World world(p);
    world.run([&](comm::Communicator& comm) {
      DistributedFFT dfft(comm, n);
      const std::size_t kx0 = dfft.local_half_start();
      auto& hk = dfft.half_k_data();
      std::copy(half.begin() + static_cast<std::ptrdiff_t>(kx0 * n * n),
                half.begin() + static_cast<std::ptrdiff_t>(
                                   (kx0 + dfft.local_half_count()) * n * n),
                hk.begin());
      dfft.backward_real();
      const std::size_t z0 = dfft.local_z_start();
      for (std::size_t zl = 0; zl < dfft.local_z_count(); ++zl) {
        for (std::size_t y = 0; y < n; ++y) {
          for (std::size_t x = 0; x < n; ++x) {
            ASSERT_NEAR(dfft.real_field()[dfft.real_index(zl, y, x)],
                        full[((z0 + zl) * n + y) * n + x].real(), 1e-12)
                << "n=" << n << " at (" << x << ", " << y << ", " << z0 + zl
                << ")";
          }
        }
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedFftTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(SlabPartition, CoversAllIndicesExactlyOnce) {
  const SlabPartition part(100, 7);
  std::size_t total = 0;
  for (int r = 0; r < 7; ++r) total += part.count(r);
  EXPECT_EQ(total, 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    const int owner = part.owner(i);
    EXPECT_GE(i, part.start(owner));
    EXPECT_LT(i, part.start(owner) + part.count(owner));
  }
}

TEST(SlabPartition, MoreRanksThanItems) {
  const SlabPartition part(3, 8);
  std::size_t total = 0;
  for (int r = 0; r < 8; ++r) total += part.count(r);
  EXPECT_EQ(total, 3u);
}

TEST(SlabPartition, OwnerMatchesStartAndCountForEveryShape) {
  // Exhaustive over n 1..70 and p 1..80, so p > n (empty slabs) is
  // covered: the closed-form owner must name the one slab holding i.
  for (std::size_t n = 1; n <= 70; ++n) {
    for (int p = 1; p <= 80; ++p) {
      const SlabPartition part(n, p);
      for (std::size_t i = 0; i < n; ++i) {
        const int r = part.owner(i);
        ASSERT_GE(r, 0) << "n=" << n << " p=" << p << " i=" << i;
        ASSERT_LT(r, p) << "n=" << n << " p=" << p << " i=" << i;
        ASSERT_GE(i, part.start(r)) << "n=" << n << " p=" << p << " i=" << i;
        ASSERT_LT(i, part.start(r) + part.count(r))
            << "n=" << n << " p=" << p << " i=" << i;
      }
    }
  }
}

TEST(SlabPartitionDeathTest, OwnerRejectsIndexPastTheEnd) {
  const SlabPartition part(12, 5);
  EXPECT_DEATH(part.owner(12), "CHECK failed");
}

}  // namespace
}  // namespace crkhacc::fft
