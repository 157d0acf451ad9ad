// Differential correctness harness for the vector tile engine.
//
// The contract under test (gpu/simd.h, gpu/warp_simd.h): with the default
// SimdMath::kExact policy, a kernel launched as built — vector tiles
// wherever LaunchConfig::vector_tiles() holds — is BITWISE identical to
// the same kernel pinned to the scalar tiles through gpu::ScalarTiles,
// for every kernel with a SIMD form, every power-of-two warp size, every
// thread count, and every leaf geometry (ragged chunks, single leaves,
// empty pair lists). The explicitly-gated SimdMath::kFused mode trades
// that identity for real FMA and must stay within a per-field ULP bound,
// reported here as a histogram.
//
// The harness layers:
//   1. lane-primitive goldens (rotate/reduce/select/min/max/neg, signed
//      zeros included) pinning gpu/simd.h on both backends;
//   2. an order-SENSITIVE kernel (non-commutative accumulator) driven
//      through the real launch drivers, so any deviation in rotation
//      order, diagonal skip, or kI/kJ one-sided walks changes bits;
//   3. the four production kernels (density, CRK moments, momentum-
//      energy, short-range gravity with and without a ForceSplit) run
//      as built and through ScalarTiles, serially and @8 threads, and
//      compared byte-for-byte, with LaunchStats parity, under four
//      activity masks (none, all inactive, random with holes, a
//      bin-ordered active prefix): active outputs bitwise equal to the
//      unmasked launch, inactive outputs untouched, interactions equal
//      to the active owner lanes times their partners; the split
//      polynomial's lane evaluation against its scalar one;
//   4. the ULP gate for kFused;
//   5. the engine-selection truth table, the device surface, and
//      param-file parsing for simd_math.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/param_file.h"
#include "core/particles.h"
#include "core/simulation.h"
#include "gpu/device.h"
#include "gpu/launch.h"
#include "gpu/simd.h"
#include "gpu/warp.h"
#include "gravity/short_range.h"
#include "integrator/timestep.h"
#include "mesh/force_split.h"
#include "sph/pair_kernels.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace crkhacc::gpu {
namespace {

comm::Box3 cube(double size) {
  comm::Box3 box;
  box.lo = {0, 0, 0};
  box.hi = {size, size, size};
  return box;
}

std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

/// ULP distance via the ordered-integer mapping (sign-magnitude floats
/// folded onto a monotone number line). Bitwise-equal floats are 0; +0
/// and -0 are 1 apart (a real difference under the bitwise contract).
std::uint64_t ulp_diff(float a, float b) {
  if (bits_of(a) == bits_of(b)) return 0;
  if (std::isnan(a) || std::isnan(b)) return ~0ull;
  const auto ordered = [](float x) -> std::int64_t {
    const auto u = static_cast<std::int64_t>(bits_of(x));
    return (u & 0x80000000ll) ? (0x80000000ll - u) : u;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

void expect_bitwise_eq(const std::vector<float>& a, const std::vector<float>& b,
                       const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits_of(a[i]) != bits_of(b[i])) {
      ADD_FAILURE() << label << " diverges at index " << i << ": "
                    << a[i] << " (0x" << std::hex << bits_of(a[i]) << ") vs "
                    << b[i] << " (0x" << bits_of(b[i]) << std::dec << "), "
                    << ulp_diff(a[i], b[i]) << " ulp";
      return;  // one detailed failure per field is enough
    }
  }
}

void expect_counter_parity(const LaunchStats& a, const LaunchStats& b,
                           const char* label) {
  EXPECT_EQ(a.interactions, b.interactions) << label;
  EXPECT_EQ(a.global_loads, b.global_loads) << label;
  EXPECT_EQ(a.partial_evals, b.partial_evals) << label;
  EXPECT_EQ(a.stores, b.stores) << label;
  EXPECT_DOUBLE_EQ(a.flops, b.flops) << label;
}

// --- 1. lane-primitive goldens ----------------------------------------------

TEST(SimdPrimitives, IotaBroadcastExtract) {
  namespace v = simd;
  const v::vfloat i = v::iota();
  for (std::uint32_t l = 0; l < v::kWidth; ++l) {
    EXPECT_EQ(v::extract(i, l), static_cast<float>(l));
  }
  const v::vfloat c = v::broadcast(3.25f);
  for (std::uint32_t l = 0; l < v::kWidth; ++l) {
    EXPECT_EQ(v::extract(c, l), 3.25f);
  }
}

TEST(SimdPrimitives, RotateGolden) {
  namespace v = simd;
  alignas(32) float in[v::kWidth];
  for (std::uint32_t l = 0; l < v::kWidth; ++l) {
    in[l] = 10.0f + static_cast<float>(l);
  }
  const v::vfloat a = v::load_aligned(in);
  for (std::uint32_t n = 0; n <= v::kWidth; ++n) {
    const v::vfloat r = v::rotate(a, n);
    for (std::uint32_t l = 0; l < v::kWidth; ++l) {
      EXPECT_EQ(v::extract(r, l), in[(l + n) % v::kWidth])
          << "rotate by " << n << " lane " << l;
    }
  }
}

TEST(SimdPrimitives, ReduceAddIsStrictlySequential) {
  namespace v = simd;
  // Values chosen so every reassociation changes the result: the golden
  // is the literal l0 + l1 + ... + l7 left fold.
  alignas(32) float in[v::kWidth] = {1e8f,  1.0f,  -1e8f, 3.0f,
                                     0.25f, 1e-3f, 7.0f,  -2.5f};
  float expected = in[0];
  for (std::uint32_t l = 1; l < v::kWidth; ++l) expected += in[l];
  EXPECT_EQ(bits_of(v::reduce_add(v::load_aligned(in))), bits_of(expected));
}

TEST(SimdPrimitives, NegFlipsSignBitOnly) {
  namespace v = simd;
  alignas(32) float in[v::kWidth] = {0.0f, -0.0f, 1.5f, -2.25f,
                                     1e-38f, -1e38f, 42.0f, -0.5f};
  const v::vfloat n = v::neg(v::load_aligned(in));
  for (std::uint32_t l = 0; l < v::kWidth; ++l) {
    EXPECT_EQ(bits_of(v::extract(n, l)), bits_of(in[l]) ^ 0x80000000u)
        << "lane " << l;
  }
  // In particular neg(+0) == -0 and neg(-0) == +0, which 0 - x gets wrong.
  EXPECT_EQ(bits_of(v::extract(n, 0)), bits_of(-0.0f));
  EXPECT_EQ(bits_of(v::extract(n, 1)), bits_of(0.0f));
}

TEST(SimdPrimitives, MinMaxFollowStdSemantics) {
  namespace v = simd;
  // std::min(a, b) = (b < a) ? b : a and std::max(a, b) = (a < b) ? b : a.
  // The signed-zero and NaN rows are exactly where minps/maxps differ.
  const float cases[][2] = {{0.0f, -0.0f}, {-0.0f, 0.0f}, {1.0f, 2.0f},
                            {2.0f, 1.0f},  {-3.0f, -3.0f},
                            {std::numeric_limits<float>::quiet_NaN(), 1.0f},
                            {1.0f, std::numeric_limits<float>::quiet_NaN()}};
  for (const auto& c : cases) {
    const v::vfloat a = v::broadcast(c[0]);
    const v::vfloat b = v::broadcast(c[1]);
    EXPECT_EQ(bits_of(v::extract(v::min_std(a, b), 0)),
              bits_of(std::min(c[0], c[1])))
        << "min(" << c[0] << ", " << c[1] << ")";
    EXPECT_EQ(bits_of(v::extract(v::max_std(a, b), 0)),
              bits_of(std::max(c[0], c[1])))
        << "max(" << c[0] << ", " << c[1] << ")";
  }
}

TEST(SimdPrimitives, SelectBlendsBitsUnderMask) {
  namespace v = simd;
  // A masked-off lane must KEEP the accumulator bits — blending -0.0f
  // over +0.0f and vice versa, never adding zero.
  alignas(32) float acc[v::kWidth] = {-0.0f, 0.0f, 1.0f, -1.0f,
                                      5.0f,  -5.0f, 0.5f, -0.5f};
  const v::vfloat a = v::load_aligned(acc);
  const v::vmask none = v::cmp_lt(v::broadcast(1.0f), v::vzero());
  const v::vmask all = v::cmp_lt(v::vzero(), v::broadcast(1.0f));
  const v::vfloat kept = v::select(none, v::broadcast(99.0f), a);
  const v::vfloat taken = v::select(all, v::broadcast(99.0f), a);
  for (std::uint32_t l = 0; l < v::kWidth; ++l) {
    EXPECT_EQ(bits_of(v::extract(kept, l)), bits_of(acc[l])) << "lane " << l;
    EXPECT_EQ(v::extract(taken, l), 99.0f) << "lane " << l;
  }
}

TEST(SimdPrimitives, MaskBitsAndPopcount) {
  namespace v = simd;
  const v::vmask m =
      v::cmp_lt(v::iota(), v::broadcast(3.0f));  // lanes 0, 1, 2 live
  EXPECT_EQ(v::mask_bits(m), 0b111u);
  EXPECT_EQ(v::popcount(m), 3u);
  // Stored mask round trip (the LaneArray liveness representation).
  simd::LaneArray stored;
  stored[0] = v::mask_on();
  stored[2] = v::mask_on();
  EXPECT_EQ(v::mask_bits(v::loadu_mask(stored.data())), 0b101u);
}

TEST(SimdPrimitives, MathPoliciesMatchScalarContracts) {
  namespace v = simd;
  const float a = 1.0000001f, b = 3.3333333f, c = -3.3333336f;
  // ExactMath: mul then add, two roundings — the scalar expression.
  EXPECT_EQ(bits_of(v::extract(
                v::ExactMath::madd(v::broadcast(a), v::broadcast(b),
                                   v::broadcast(c)),
                0)),
            bits_of(a * b + c));
  // FusedMath: single rounding — std::fma.
  EXPECT_EQ(bits_of(v::extract(
                v::FusedMath::madd(v::broadcast(a), v::broadcast(b),
                                   v::broadcast(c)),
                0)),
            bits_of(std::fma(a, b, c)));
  EXPECT_STREQ(v::ExactMath::kName, "exact");
  EXPECT_STREQ(v::FusedMath::kName, "fused");
}

// --- 2. order-sensitive rotation kernel -------------------------------------

/// Kernel whose accumulator is deliberately NON-commutative:
/// acc = acc * k + tag_j, so the accumulated value encodes the exact
/// partner ORDER (and the store folds non-commutatively too, pinning the
/// per-particle store sequence). Any deviation in rotation order,
/// diagonal skip, or one-sided walk order changes the bits, and so does
/// any store to a particle inactive under the optional mask.
class RotationOrderKernel {
 public:
  static constexpr const char* kName = "test_rotation_order";
  static constexpr double kFlopsPerInteraction = 2.0;
  static constexpr double kFlopsPerPartial = 1.0;
  static constexpr float kFold = 1.0009765625f;  // 1 + 2^-10, exact

  struct State {
    float x = 0.0f, y = 0.0f, z = 0.0f;  ///< unused; every State leads with them
    float tag = 0.0f;
  };
  struct Partial {
    float tag = 0.0f;
  };
  struct Accum {
    float s = 0.0f;
  };

  RotationOrderKernel(const std::vector<float>& tags, std::vector<float>& out,
                      const std::uint8_t* active = nullptr)
      : tags_(tags), out_(out), active_(active) {}

  const std::uint8_t* active() const { return active_; }

  State load(std::uint32_t i) const { return State{0.0f, 0.0f, 0.0f, tags_[i]}; }
  Partial partial(const State& s) const { return Partial{s.tag}; }
  void interact(const State&, const Partial&, const State&,
                const Partial& other_p, Accum& acc) const {
    acc.s = acc.s * kFold + other_p.tag;
  }
  void store(std::uint32_t i, const Accum& acc) {
    out_[i] = out_[i] * kFold + acc.s;
  }

  struct SimdLanes {
    simd::LaneArray tag;
    void set(std::uint32_t k, const State& s, const Partial&) {
      tag[k] = s.tag;
    }
  };
  struct SimdAccum {
    simd::vfloat s = simd::vzero();
    Accum lane(std::uint32_t l) const { return Accum{simd::extract(s, l)}; }
  };

  template <typename Math>
  void interact_simd(const SimdLanes&, std::uint32_t,
                     const SimdLanes& other, std::uint32_t ob,
                     simd::vmask live, SimdAccum& acc) const {
    namespace v = simd;
    const v::vfloat otag = v::loadu(other.tag.data() + ob);
    acc.s = v::select(live, Math::madd(acc.s, v::broadcast(kFold), otag),
                      acc.s);
  }

 private:
  const std::vector<float>& tags_;
  std::vector<float>& out_;
  const std::uint8_t* active_;
};

Particles random_particles(std::size_t n, double box, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(i, Species::kDarkMatter,
                static_cast<float>(rng.next_double() * box),
                static_cast<float>(rng.next_double() * box),
                static_cast<float>(rng.next_double() * box), 0, 0, 0,
                static_cast<float>(0.5 + rng.next_double()));
  }
  return p;
}

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Which tile engine a harness launch runs: the kernel as built (vector
/// tiles wherever LaunchConfig::vector_tiles() holds) or the scalar
/// reference, the kernel wrapped in ScalarTiles.
enum class Tiles { kAsBuilt, kScalar };

template <typename Kernel>
LaunchStats launch_on(Tiles tiles, Kernel& kernel,
                      const tree::ChainingMesh& mesh, const LaunchPlan& plan,
                      const LaunchConfig& config, util::ThreadPool* pool) {
  if (tiles == Tiles::kScalar) {
    ScalarTiles<Kernel> scalar(kernel);
    return launch_pair_kernel(scalar, mesh, plan, config, pool);
  }
  return launch_pair_kernel(kernel, mesh, plan, config, pool);
}

std::vector<float> run_rotation_order(const Particles& p,
                                      const tree::ChainingMesh& mesh,
                                      const PairList& pairs, Tiles tiles,
                                      const LaunchConfig& config,
                                      util::ThreadPool* pool = nullptr,
                                      LaunchStats* stats_out = nullptr,
                                      const std::uint8_t* mask = nullptr) {
  std::vector<float> tags(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    tags[i] = 1.0f + 0.001f * static_cast<float>(i);
  }
  std::vector<float> out(p.size(), 1.0f);
  RotationOrderKernel kernel(tags, out, mask);
  const auto stats = launch_on(tiles, kernel, mesh, LaunchPlan(mesh, pairs),
                               config, pool);
  if (stats_out) *stats_out = stats;
  return out;
}

class RotationOrderTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RotationOrderTest, SimdPreservesScalarOperandOrder) {
  const LaunchConfig config{.warp_size = GetParam()};
  util::ThreadPool pool(8);
  // Several geometries: ragged tiny leaves, chunk-sized leaves, and a
  // single leaf holding everything.
  for (const std::uint32_t leaf_size : {4u, 8u, 9u, 128u}) {
    const auto p = random_particles(97, 1.0, 1000 + leaf_size);
    tree::ChainingMesh mesh(cube(1.0), {2.0, leaf_size});
    mesh.build(p);
    const auto pairs = mesh.interaction_pairs(10.0);

    LaunchStats scalar_stats, built_stats;
    const auto scalar = run_rotation_order(p, mesh, pairs, Tiles::kScalar,
                                           config, nullptr, &scalar_stats);
    const auto built_serial = run_rotation_order(
        p, mesh, pairs, Tiles::kAsBuilt, config, nullptr, &built_stats);
    const auto built_pool =
        run_rotation_order(p, mesh, pairs, Tiles::kAsBuilt, config, &pool);
    expect_bitwise_eq(scalar, built_serial, "as built serial vs scalar");
    expect_bitwise_eq(scalar, built_pool, "as built @8 threads vs scalar");
    expect_counter_parity(scalar_stats, built_stats,
                          "as built serial stats vs scalar");

    // Culled: every active particle keeps its partner order and store
    // sequence bit for bit, and every inactive one its starting 1.0f.
    std::vector<std::uint8_t> mask(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) mask[i] = (i * 7 + 3) % 5 < 3;
    std::vector<float> want = scalar;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!mask[i]) want[i] = 1.0f;
    }
    LaunchStats masked_scalar_stats, masked_built_stats;
    expect_bitwise_eq(want,
                      run_rotation_order(p, mesh, pairs, Tiles::kScalar,
                                         config, nullptr, &masked_scalar_stats,
                                         mask.data()),
                      "masked scalar vs unmasked");
    expect_bitwise_eq(want,
                      run_rotation_order(p, mesh, pairs, Tiles::kAsBuilt,
                                         config, nullptr, &masked_built_stats,
                                         mask.data()),
                      "masked as built vs unmasked");
    expect_bitwise_eq(want,
                      run_rotation_order(p, mesh, pairs, Tiles::kAsBuilt,
                                         config, &pool, nullptr, mask.data()),
                      "masked as built @8 threads vs unmasked");
    expect_counter_parity(masked_scalar_stats, masked_built_stats,
                          "masked as built serial stats vs scalar");
  }
}

INSTANTIATE_TEST_SUITE_P(WarpSizes, RotationOrderTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u));

// --- 3. production-kernel differential harness -------------------------------

/// Gas fixture with every scratch field the SPH kernels read populated
/// deterministically (no physics pipeline needed for a differential
/// test — only identical inputs across tile engines).
struct GasFixture {
  Particles p;
  sph::SphScratch scratch;
  tree::ChainingMesh mesh;
  LaunchPlan plan;

  /// `periodic`: a periodic mesh with 3-wide bins, whose pair list
  /// (radius 3, above the 2.8 kernel support) names image partners.
  GasFixture(std::size_t n_per_dim, double box, std::uint32_t leaf_size,
             std::uint64_t seed, bool periodic = false)
      : mesh(cube(box), {periodic ? 3.0 : 2.0, leaf_size, periodic}) {
    SplitMix64 rng(seed);
    const double cell = box / static_cast<double>(n_per_dim);
    std::uint64_t id = 0;
    for (std::size_t iz = 0; iz < n_per_dim; ++iz) {
      for (std::size_t iy = 0; iy < n_per_dim; ++iy) {
        for (std::size_t ix = 0; ix < n_per_dim; ++ix) {
          const auto jig = [&] {
            return 0.45 * cell * (rng.next_double() - 0.5);
          };
          const auto vel = [&] {
            return static_cast<float>(2.0 * (rng.next_double() - 0.5));
          };
          const std::size_t i = p.push_back(
              id++, Species::kGas,
              static_cast<float>((ix + 0.5) * cell + jig()),
              static_cast<float>((iy + 0.5) * cell + jig()),
              static_cast<float>((iz + 0.5) * cell + jig()), vel(), vel(),
              vel(), 1.0f);
          p.hsml[i] = static_cast<float>(1.4 * cell);
          p.u[i] = 100.0f;
        }
      }
    }
    scratch.resize(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      const float rho = static_cast<float>(0.7 + 0.6 * rng.next_double());
      p.rho[i] = rho;
      scratch.volume[i] = p.mass[i] / rho;
      scratch.press[i] = (2.0f / 3.0f) * rho * p.u[i];
      scratch.cs[i] = std::sqrt(10.0f / 9.0f * p.u[i]);
      scratch.crk_a[i] = static_cast<float>(0.9 + 0.2 * rng.next_double());
      for (int d = 0; d < 3; ++d) {
        scratch.crk_b[i][d] =
            static_cast<float>(0.1 * (rng.next_double() - 0.5));
      }
    }
    mesh.build(p);
    plan = LaunchPlan(mesh, mesh.interaction_pairs(periodic ? 3.0 : 10.0));
  }
};

/// One snapshot of a kernel's accumulated output fields, flattened into
/// named float vectors for byte comparison and ULP accounting. A field
/// holds one or more consecutive entries per particle (m1 has three).
using FieldSnapshot = std::vector<std::pair<std::string, std::vector<float>>>;

// --- activity masks ---

/// What an inactive particle's output fields hold before a masked launch,
/// which must leave them untouched. Active particles start at zero, like
/// the accumulators a step zeroes.
constexpr float kUntouched = 12345.0f;

float start_value(const std::uint8_t* mask, std::size_t i) {
  return mask && !mask[i] ? kUntouched : 0.0f;
}

void reset_field(std::vector<float>& field, const std::uint8_t* mask) {
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = start_value(mask, i);
  }
}

/// One activity mask of the differential sweep; empty = no mask.
struct MaskCase {
  std::string name;
  std::vector<std::uint8_t> mask;
  const std::uint8_t* data() const {
    return mask.empty() ? nullptr : mask.data();
  }
};

/// The sweep's masks over `p`: none, all inactive, random with holes, and
/// substep 2 of a depth-3 timestep-bin schedule. Assigns random bins and
/// orders `mesh`'s leaves by them, as a step does, so the last mask is an
/// active prefix of every leaf.
std::vector<MaskCase> mask_cases(Particles& p, tree::ChainingMesh& mesh,
                                 std::uint64_t seed) {
  constexpr int kDepth = 3;
  SplitMix64 rng(seed);
  const std::size_t n = p.size();
  std::vector<std::uint8_t> holes(n), prefix(n);
  for (std::size_t i = 0; i < n; ++i) {
    holes[i] = rng.next_double() < 0.5 ? 1 : 0;
    p.bin[i] = static_cast<std::uint8_t>(rng.next_bounded(kDepth + 1));
    prefix[i] = integrator::bin_active(p.bin[i], 2, kDepth) ? 1 : 0;
  }
  mesh.order_members_by_bin(p);
  return {{"no mask", {}},
          {"all inactive", std::vector<std::uint8_t>(n, 0)},
          {"holes", std::move(holes)},
          {"bin prefix", std::move(prefix)}};
}

/// Ordered pair evaluations of a culled launch over `plan`: each active
/// owner lane times its partners (a self pair's lane skips itself).
std::uint64_t expected_interactions(const tree::ChainingMesh& mesh,
                                    const LaunchPlan& plan,
                                    const std::uint8_t* mask) {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < plan.num_owners(); ++t) {
    const tree::Leaf& owner = mesh.leaf(plan.owner(t));
    std::uint64_t active = 0;
    for (std::uint32_t s = owner.begin; s < owner.end; ++s) {
      active += !mask || mask[mesh.permutation()[s]];
    }
    for (const LaunchPlan::Entry& e : plan.entries(t)) {
      const std::uint64_t partners =
          e.side == LaunchPlan::Side::kBoth
              ? owner.size() - 1
              : mesh.leaf(mesh.base_leaf(e.partner)).size();
      total += active * partners;
    }
  }
  return total;
}

/// A masked launch's outputs against the unmasked launch's: bitwise
/// equal for active particles, kUntouched for inactive ones.
void expect_masked_outputs(const FieldSnapshot& unmasked,
                           const FieldSnapshot& masked,
                           const std::uint8_t* mask, std::size_t n,
                           const std::string& label) {
  ASSERT_EQ(unmasked.size(), masked.size()) << label;
  for (std::size_t k = 0; k < masked.size(); ++k) {
    const std::vector<float>& want = unmasked[k].second;
    const std::vector<float>& got = masked[k].second;
    ASSERT_EQ(want.size(), got.size()) << label;
    const std::size_t stride = got.size() / n;
    for (std::size_t e = 0; e < got.size(); ++e) {
      const std::size_t i = e / stride;
      const float expected = !mask || mask[i] ? want[e] : kUntouched;
      if (bits_of(got[e]) != bits_of(expected)) {
        ADD_FAILURE() << label << " field " << masked[k].first
                      << " particle " << i << " (active "
                      << (!mask || mask[i]) << "): " << got[e] << " vs "
                      << expected;
        break;  // one detailed failure per field is enough
      }
    }
  }
}

FieldSnapshot run_density(GasFixture& f, Tiles tiles,
                          const LaunchConfig& config, util::ThreadPool* pool,
                          LaunchStats* stats_out,
                          const std::uint8_t* mask = nullptr) {
  const std::vector<float> rho_in = f.p.rho;  // restored below
  reset_field(f.p.rho, mask);
  reset_field(f.scratch.nnbr, mask);
  sph::DensityKernel kernel(f.p, f.scratch, mask);
  const auto stats = launch_on(tiles, kernel, f.mesh, f.plan, config, pool);
  if (stats_out) *stats_out = stats;
  FieldSnapshot snap{{"rho", f.p.rho}, {"nnbr", f.scratch.nnbr}};
  f.p.rho = rho_in;
  return snap;
}

FieldSnapshot run_moments(GasFixture& f, Tiles tiles,
                          const LaunchConfig& config, util::ThreadPool* pool,
                          LaunchStats* stats_out,
                          const std::uint8_t* mask = nullptr) {
  for (std::size_t i = 0; i < f.scratch.moments.size(); ++i) {
    sph::CrkMoments& m = f.scratch.moments[i];
    m.m0 = start_value(mask, i);
    m.m1.fill(start_value(mask, i));
    m.m2.fill(start_value(mask, i));
  }
  sph::CrkMomentKernel kernel(f.p, f.scratch, mask);
  const auto stats = launch_on(tiles, kernel, f.mesh, f.plan, config, pool);
  if (stats_out) *stats_out = stats;
  std::vector<float> m0, m1, m2;
  for (const auto& m : f.scratch.moments) {
    m0.push_back(m.m0);
    for (int d = 0; d < 3; ++d) m1.push_back(m.m1[d]);
    for (int d = 0; d < 6; ++d) m2.push_back(m.m2[d]);
  }
  return {{"m0", std::move(m0)}, {"m1", std::move(m1)}, {"m2", std::move(m2)}};
}

FieldSnapshot run_momentum(GasFixture& f, Tiles tiles,
                           const LaunchConfig& config, util::ThreadPool* pool,
                           LaunchStats* stats_out,
                           const std::uint8_t* mask = nullptr) {
  for (std::vector<float>* field :
       {&f.p.ax, &f.p.ay, &f.p.az, &f.p.du, &f.scratch.vsig}) {
    reset_field(*field, mask);
  }
  sph::MomentumEnergyKernel kernel(f.p, f.scratch, mask,
                                   sph::ViscosityParams{});
  const auto stats = launch_on(tiles, kernel, f.mesh, f.plan, config, pool);
  if (stats_out) *stats_out = stats;
  return {{"ax", f.p.ax},
          {"ay", f.p.ay},
          {"az", f.p.az},
          {"du", f.p.du},
          {"vsig", f.scratch.vsig}};
}

FieldSnapshot run_gravity(Particles& p, const tree::ChainingMesh& mesh,
                          const PairList& pairs,
                          const mesh::ForceSplit* split, Tiles tiles,
                          const LaunchConfig& config, util::ThreadPool* pool,
                          LaunchStats* stats_out,
                          const std::uint8_t* mask = nullptr) {
  for (std::vector<float>* field : {&p.ax, &p.ay, &p.az}) {
    reset_field(*field, mask);
  }
  gravity::ShortRangeKernel kernel(p, mask, split, 1.0f, 0.05f, 1.9f);
  const auto stats =
      launch_on(tiles, kernel, mesh, LaunchPlan(mesh, pairs), config, pool);
  if (stats_out) *stats_out = stats;
  return {{"ax", p.ax}, {"ay", p.ay}, {"az", p.az}};
}

void expect_snapshot_bitwise_eq(const FieldSnapshot& a, const FieldSnapshot& b,
                                const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].first, b[k].first) << label;
    expect_bitwise_eq(a[k].second, b[k].second,
                      (label + " field " + a[k].first).c_str());
  }
}

/// The full differential sweep for one runner, under every activity
/// mask of `masks`. Per mask, the reference is a serial ScalarTiles
/// launch: its active outputs must equal the unmasked launch's bitwise
/// and its inactive outputs stay untouched, and its interactions count
/// the active owner lanes times their partners over `plan`. The kernel
/// as built (serial and @8 threads) and ScalarTiles @8 must all match
/// the reference bitwise and on every LaunchStats counter. An as-built
/// launch's register footprint tells which engine it ran: it must differ
/// from the scalar reference's exactly when config.vector_tiles() holds
/// (every kernel here has a SIMD form).
template <typename Runner>
void differential_sweep(Runner&& run, const tree::ChainingMesh& mesh,
                        const LaunchPlan& plan,
                        const std::vector<MaskCase>& masks,
                        std::uint32_t warp_size, const std::string& label) {
  util::ThreadPool pool(8);
  const LaunchConfig config{.warp_size = warp_size};
  const auto unmasked = run(Tiles::kScalar, config, nullptr, nullptr, nullptr);
  for (const MaskCase& m : masks) {
    const std::string mlabel = label + " " + m.name;
    LaunchStats ref_stats;
    const auto reference =
        run(Tiles::kScalar, config, nullptr, &ref_stats, m.data());
    expect_masked_outputs(unmasked, reference, m.data(), mesh.num_particles(),
                          mlabel);
    EXPECT_EQ(ref_stats.interactions,
              expected_interactions(mesh, plan, m.data()))
        << mlabel;
    struct Variant {
      Tiles tiles;
      util::ThreadPool* pool;
      const char* name;
    };
    for (const Variant& v : {Variant{Tiles::kAsBuilt, nullptr, " as built"},
                             Variant{Tiles::kAsBuilt, &pool, " as built @8"},
                             Variant{Tiles::kScalar, &pool, " scalar @8"}}) {
      LaunchStats stats;
      expect_snapshot_bitwise_eq(
          reference, run(v.tiles, config, v.pool, &stats, m.data()),
          mlabel + v.name);
      expect_counter_parity(ref_stats, stats, (mlabel + v.name).c_str());
      if (v.tiles == Tiles::kAsBuilt) {
        EXPECT_EQ(stats.register_bytes_per_thread !=
                      ref_stats.register_bytes_per_thread,
                  config.vector_tiles())
            << mlabel << v.name << " ran the wrong tile engine";
      }
    }
  }
}

class SimdDifferentialTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SimdDifferentialTest, DensityBitwiseAcrossSchedules) {
  const std::uint32_t warp = GetParam();
  GasFixture f(6, 6.0, 16, 51);
  const auto masks = mask_cases(f.p, f.mesh, 151);
  differential_sweep(
      [&](Tiles t, const LaunchConfig& c, util::ThreadPool* pool,
          LaunchStats* s, const std::uint8_t* m) {
        return run_density(f, t, c, pool, s, m);
      },
      f.mesh, f.plan, masks, warp, "density w" + std::to_string(warp));
}

TEST_P(SimdDifferentialTest, CrkMomentsBitwiseAcrossSchedules) {
  const std::uint32_t warp = GetParam();
  GasFixture f(6, 6.0, 16, 52);
  const auto masks = mask_cases(f.p, f.mesh, 152);
  differential_sweep(
      [&](Tiles t, const LaunchConfig& c, util::ThreadPool* pool,
          LaunchStats* s, const std::uint8_t* m) {
        return run_moments(f, t, c, pool, s, m);
      },
      f.mesh, f.plan, masks, warp, "moments w" + std::to_string(warp));
}

TEST_P(SimdDifferentialTest, MomentumEnergyBitwiseAcrossSchedules) {
  const std::uint32_t warp = GetParam();
  GasFixture f(6, 6.0, 16, 53);
  const auto masks = mask_cases(f.p, f.mesh, 153);
  differential_sweep(
      [&](Tiles t, const LaunchConfig& c, util::ThreadPool* pool,
          LaunchStats* s, const std::uint8_t* m) {
        return run_momentum(f, t, c, pool, s, m);
      },
      f.mesh, f.plan, masks, warp, "momentum w" + std::to_string(warp));
}

TEST_P(SimdDifferentialTest, GravityBitwiseAcrossSchedules) {
  const std::uint32_t warp = GetParam();
  auto p = random_particles(250, 6.0, 54);
  tree::ChainingMesh mesh(cube(6.0), {2.0, 16});
  mesh.build(p);
  const auto pairs = mesh.interaction_pairs(10.0);
  const LaunchPlan plan(mesh, pairs);
  const auto masks = mask_cases(p, mesh, 154);
  // Newtonian, and split (the in-lane split polynomial).
  const mesh::ForceSplit split(0.5);
  for (const mesh::ForceSplit* s : {static_cast<const mesh::ForceSplit*>(
                                        nullptr),
                                    &split}) {
    differential_sweep(
        [&](Tiles t, const LaunchConfig& c, util::ThreadPool* pool,
            LaunchStats* st, const std::uint8_t* m) {
          return run_gravity(p, mesh, pairs, s, t, c, pool, st, m);
        },
        mesh, plan, masks, warp,
        std::string("gravity ") + (s ? "split" : "newtonian") + " w" +
            std::to_string(warp));
  }
}

TEST(SimdSplitPolynomial, LanesMatchScalarBitwise) {
  // ShortRangeKernel::split_factor_simd under exact math against
  // SplitPolynomial::evaluate, lane by lane, on 2^20 radii spanning
  // [0, cutoff) for a short and a long polynomial.
  constexpr std::uint32_t kRadii = 1u << 20;
  for (const double threshold : {1e-3, 1e-5}) {
    const mesh::ForceSplit split(0.5, threshold);
    const mesh::SplitPolynomial& poly = split.polynomial();
    std::uint64_t mismatches = 0;
    alignas(32) float r2[simd::kWidth];
    alignas(32) float lanes[simd::kWidth];
    for (std::uint32_t base = 0; base < kRadii; base += simd::kWidth) {
      for (std::uint32_t l = 0; l < simd::kWidth; ++l) {
        const float r = static_cast<float>(split.cutoff() * (base + l) / kRadii);
        r2[l] = r * r;
      }
      simd::store(lanes,
                  gravity::ShortRangeKernel::split_factor_simd<simd::ExactMath>(
                      poly, simd::load_aligned(r2)));
      for (std::uint32_t l = 0; l < simd::kWidth; ++l) {
        if (bits_of(lanes[l]) != bits_of(poly.evaluate(r2[l]))) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "threshold " << threshold << ", "
                              << poly.terms << " terms";
  }
}

TEST_P(SimdDifferentialTest, PeriodicImagePartnersBitwiseAcrossSchedules) {
  // Every production kernel over a periodic mesh, whose lane fills add
  // image shifts to partner positions in both tile engines.
  const std::uint32_t warp = GetParam();
  GasFixture f(6, 6.0, 16, 56, /*periodic=*/true);
  std::size_t images = 0;
  for (std::size_t t = 0; t < f.plan.num_owners(); ++t) {
    for (const auto& e : f.plan.entries(t)) {
      images += e.partner >= f.mesh.num_leaves();
    }
  }
  ASSERT_GT(images, 0u);
  const auto masks = mask_cases(f.p, f.mesh, 156);
  const std::string w = " w" + std::to_string(warp);
  differential_sweep(
      [&](Tiles t, const LaunchConfig& c, util::ThreadPool* pool,
          LaunchStats* s, const std::uint8_t* m) {
        return run_density(f, t, c, pool, s, m);
      },
      f.mesh, f.plan, masks, warp, "periodic density" + w);
  differential_sweep(
      [&](Tiles t, const LaunchConfig& c, util::ThreadPool* pool,
          LaunchStats* s, const std::uint8_t* m) {
        return run_moments(f, t, c, pool, s, m);
      },
      f.mesh, f.plan, masks, warp, "periodic moments" + w);
  differential_sweep(
      [&](Tiles t, const LaunchConfig& c, util::ThreadPool* pool,
          LaunchStats* s, const std::uint8_t* m) {
        return run_momentum(f, t, c, pool, s, m);
      },
      f.mesh, f.plan, masks, warp, "periodic momentum" + w);
  const mesh::ForceSplit split(0.5);
  const PairList pairs = f.mesh.interaction_pairs(1.9);
  differential_sweep(
      [&](Tiles t, const LaunchConfig& c, util::ThreadPool* pool,
          LaunchStats* st, const std::uint8_t* m) {
        return run_gravity(f.p, f.mesh, pairs, &split, t, c, pool, st, m);
      },
      f.mesh, LaunchPlan(f.mesh, pairs), masks, warp,
      "periodic gravity split" + w);
}

INSTANTIATE_TEST_SUITE_P(WarpSizes, SimdDifferentialTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u));

TEST(SimdDifferential, WendlandDensityBitwise) {
  GasFixture f(5, 5.0, 16, 55);
  util::ThreadPool pool(8);
  const auto run = [&](Tiles t, util::ThreadPool* p) {
    const std::vector<float> rho_in = f.p.rho;
    std::fill(f.p.rho.begin(), f.p.rho.end(), 0.0f);
    std::fill(f.scratch.nnbr.begin(), f.scratch.nnbr.end(), 0.0f);
    sph::DensityKernelT<sph::WendlandC4> kernel(f.p, f.scratch, nullptr);
    launch_on(t, kernel, f.mesh, f.plan, LaunchConfig{.warp_size = 16}, p);
    FieldSnapshot snap{{"rho", f.p.rho}, {"nnbr", f.scratch.nnbr}};
    f.p.rho = rho_in;
    return snap;
  };
  const auto scalar = run(Tiles::kScalar, nullptr);
  expect_snapshot_bitwise_eq(scalar, run(Tiles::kAsBuilt, nullptr),
                             "wendland as built serial");
  expect_snapshot_bitwise_eq(scalar, run(Tiles::kAsBuilt, &pool),
                             "wendland as built @8");
}

TEST(SimdDifferential, EdgeGeometries) {
  // (particle count, leaf_size): fewer particles than a vector, leaf
  // sizes of w / w + 1 against warp 16 (w = 8 = simd::kWidth), the
  // minimum leaf capacity, and a single leaf holding everything.
  const std::pair<std::size_t, std::uint32_t> cases[] = {
      {3, 16}, {13, 4}, {40, 8}, {40, 9}, {90, 128}};
  for (const auto& [n, leaf_size] : cases) {
    auto p = random_particles(n, 1.0, 60 + leaf_size);
    tree::ChainingMesh mesh(cube(1.0), {2.0, leaf_size});
    mesh.build(p);
    const auto pairs = mesh.interaction_pairs(10.0);
    const auto masks = mask_cases(p, mesh, 160 + leaf_size);
    const auto label = "gravity n" + std::to_string(n) + " leaf" +
                       std::to_string(leaf_size);
    differential_sweep(
        [&](Tiles t, const LaunchConfig& c, util::ThreadPool* pl,
            LaunchStats* st, const std::uint8_t* m) {
          return run_gravity(p, mesh, pairs, nullptr, t, c, pl, st, m);
        },
        mesh, LaunchPlan(mesh, pairs), masks, 16, label);
  }
}

TEST(SimdDifferential, EmptyPairList) {
  auto p = random_particles(32, 1.0, 70);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 16});
  mesh.build(p);
  const PairList no_pairs;
  util::ThreadPool pool(8);
  LaunchStats stats;
  const auto snap = run_gravity(p, mesh, no_pairs, nullptr, Tiles::kAsBuilt,
                                LaunchConfig{}, &pool, &stats);
  EXPECT_EQ(stats.interactions, 0u);
  EXPECT_EQ(stats.stores, 0u);
  for (const auto& [name, field] : snap) {
    for (const float v : field) EXPECT_EQ(bits_of(v), 0u) << name;
  }
}

TEST(SimdDifferential, RegisterBytesReflectLaneBuffers) {
  GasFixture f(4, 4.0, 16, 71);
  LaunchStats scalar_stats, built_stats;
  run_density(f, Tiles::kScalar, LaunchConfig{}, nullptr, &scalar_stats);
  run_density(f, Tiles::kAsBuilt, LaunchConfig{}, nullptr, &built_stats);
  const std::size_t scalar_bytes = sizeof(sph::DensityKernel::State) +
                                   sizeof(sph::DensityKernel::Partial) +
                                   sizeof(sph::DensityKernel::Accum);
  const std::size_t lane_bytes = 2 * sizeof(sph::DensityKernel::SimdLanes) +
                                 sizeof(sph::DensityKernel::SimdAccum);
  EXPECT_EQ(scalar_stats.register_bytes_per_thread, scalar_bytes);
  EXPECT_EQ(built_stats.register_bytes_per_thread,
            LaunchConfig{}.vector_tiles() ? lane_bytes : scalar_bytes);
}

// --- 4. the ULP gate for SimdMath::kFused ------------------------------------

/// Max acceptable error of any accumulated field between the kFused
/// vector kernels and the scalar baseline, measured in ulps OF THE
/// FIELD'S ACCUMULATION SCALE (its max magnitude). Pointwise ULP
/// distance is the wrong gate for cancellation-dominated sums —
/// accelerations and the antisymmetric CRK moments accumulate positive
/// and negative contributions that nearly cancel, so a near-zero result
/// can sit thousands of (denormal-tiny) ulps from the baseline while the
/// absolute error stays far below one ulp of any contribution. FMA is
/// single-rounded, so per-interaction drift is < 1 scale-ulp; measured
/// maxima on these fixtures are <= 3, and the gate leaves headroom for
/// seed and fixture drift without ever admitting a real divergence.
constexpr double kFusedScaleUlpGate = 16.0;

void expect_ulp_bounded(const FieldSnapshot& scalar, const FieldSnapshot& fused,
                        const std::string& label) {
  ASSERT_EQ(scalar.size(), fused.size());
  for (std::size_t k = 0; k < scalar.size(); ++k) {
    const auto& a = scalar[k].second;
    const auto& b = fused[k].second;
    ASSERT_EQ(a.size(), b.size());
    float scale = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_FALSE(std::isnan(a[i]) || std::isnan(b[i]))
          << label << " field " << scalar[k].first << " index " << i;
      scale = std::max({scale, std::fabs(a[i]), std::fabs(b[i])});
    }
    const float scale_ulp =
        scale > 0.0f
            ? std::nextafterf(scale, std::numeric_limits<float>::infinity()) -
                  scale
            : 1.0f;
    // Pointwise ULP histogram (reported, not gated):
    // buckets 0, 1, 2, <=4, <=8, <=16, <=32, <=64, >64.
    std::uint64_t hist[9] = {};
    std::uint64_t max_ulp = 0;
    double max_scale_ulp = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::uint64_t d = ulp_diff(a[i], b[i]);
      max_ulp = std::max(max_ulp, d);
      max_scale_ulp = std::max(
          max_scale_ulp, std::fabs(static_cast<double>(a[i]) - b[i]) /
                             static_cast<double>(scale_ulp));
      int bucket = 0;
      if (d <= 2) {
        bucket = static_cast<int>(d);
      } else {
        bucket = 3;
        for (std::uint64_t edge = 4; bucket < 8 && d > edge; edge *= 2) {
          ++bucket;
        }
      }
      ++hist[bucket];
    }
    std::printf(
        "[ulp] %-18s %-5s scale-ulp %7.2f pointwise max %6llu | 0:%llu "
        "1:%llu 2:%llu <=4:%llu <=8:%llu <=16:%llu <=32:%llu <=64:%llu "
        ">64:%llu\n",
        label.c_str(), scalar[k].first.c_str(), max_scale_ulp,
        static_cast<unsigned long long>(max_ulp),
        static_cast<unsigned long long>(hist[0]),
        static_cast<unsigned long long>(hist[1]),
        static_cast<unsigned long long>(hist[2]),
        static_cast<unsigned long long>(hist[3]),
        static_cast<unsigned long long>(hist[4]),
        static_cast<unsigned long long>(hist[5]),
        static_cast<unsigned long long>(hist[6]),
        static_cast<unsigned long long>(hist[7]),
        static_cast<unsigned long long>(hist[8]));
    EXPECT_LE(max_scale_ulp, kFusedScaleUlpGate)
        << label << " field " << scalar[k].first;
  }
}

TEST(SimdFusedMath, UlpBoundedAgainstScalar) {
  if (!simd::kAvailable) GTEST_SKIP() << "no vector tiles in this build";
  GasFixture f(6, 6.0, 16, 80);
  // Scalar side: ScalarTiles under the default exact math. Fused side:
  // the kernel as built, which takes vector tiles at warp 16.
  const LaunchConfig scalar_cfg{.warp_size = 16};
  const LaunchConfig fused_cfg{.warp_size = 16,
                               .simd_math = SimdMath::kFused};
  const Tiles scalar = Tiles::kScalar;
  const Tiles fused = Tiles::kAsBuilt;
  expect_ulp_bounded(run_density(f, scalar, scalar_cfg, nullptr, nullptr),
                     run_density(f, fused, fused_cfg, nullptr, nullptr),
                     "density");
  expect_ulp_bounded(run_moments(f, scalar, scalar_cfg, nullptr, nullptr),
                     run_moments(f, fused, fused_cfg, nullptr, nullptr),
                     "moments");
  expect_ulp_bounded(run_momentum(f, scalar, scalar_cfg, nullptr, nullptr),
                     run_momentum(f, fused, fused_cfg, nullptr, nullptr),
                     "momentum");

  auto gp = random_particles(250, 6.0, 81);
  tree::ChainingMesh gmesh(cube(6.0), {2.0, 16});
  gmesh.build(gp);
  const auto gpairs = gmesh.interaction_pairs(10.0);
  expect_ulp_bounded(run_gravity(gp, gmesh, gpairs, nullptr, scalar,
                                 scalar_cfg, nullptr, nullptr),
                     run_gravity(gp, gmesh, gpairs, nullptr, fused, fused_cfg,
                                 nullptr, nullptr),
                     "gravity");
  // The split polynomial's Horner steps fuse too.
  const mesh::ForceSplit split(0.5);
  expect_ulp_bounded(run_gravity(gp, gmesh, gpairs, &split, scalar,
                                 scalar_cfg, nullptr, nullptr),
                     run_gravity(gp, gmesh, gpairs, &split, fused, fused_cfg,
                                 nullptr, nullptr),
                     "gravity split");
}

TEST(SimdFusedMath, FusedStaysDeterministicAcrossThreads) {
  if (!simd::kAvailable) GTEST_SKIP() << "no vector tiles in this build";
  // kFused gives up scalar parity, NOT determinism: serial and 8-thread
  // fused launches must still agree bitwise.
  GasFixture f(6, 6.0, 16, 82);
  util::ThreadPool pool(8);
  const LaunchConfig fused_cfg{.warp_size = 16,
                               .simd_math = SimdMath::kFused};
  const auto serial =
      run_momentum(f, Tiles::kAsBuilt, fused_cfg, nullptr, nullptr);
  const auto pooled =
      run_momentum(f, Tiles::kAsBuilt, fused_cfg, &pool, nullptr);
  expect_snapshot_bitwise_eq(serial, pooled, "fused serial vs @8");
}

// --- 5. engine selection, device surface, param parsing ----------------------

TEST(SimdConfigValidation, VectorTilesTruthTable) {
  // Every (mode, warp) pair below is a valid config; the engine follows:
  // vector tiles <=> AVX2 compiled in, warp-split, power-of-two warp.
  for (const LaunchMode mode : {LaunchMode::kNaive, LaunchMode::kWarpSplit}) {
    for (const std::uint32_t warp :
         {2u, 3u, 4u, 6u, 8u, 10u, 16u, 24u, 32u, 48u, 64u}) {
      const LaunchConfig config{.warp_size = warp, .mode = mode};
      const bool pow2 = (warp & (warp - 1)) == 0;
      EXPECT_EQ(config.invalid_reason(), nullptr) << "warp " << warp;
      EXPECT_EQ(config.vector_tiles(),
                simd::kAvailable && mode == LaunchMode::kWarpSplit && pow2)
          << "warp " << warp << " naive " << (mode == LaunchMode::kNaive);
    }
  }
  EXPECT_NE(LaunchConfig{.warp_size = 1}.invalid_reason(), nullptr);

  // The configs outside the vector engine launch fine and run scalar
  // tiles: bitwise equal to ScalarTiles, with the scalar footprint, and
  // they cull inactive owner lanes like the vector engine (naive mode
  // included).
  GasFixture f(5, 5.0, 16, 72);
  const auto masks = mask_cases(f.p, f.mesh, 172);
  for (const LaunchConfig config :
       {LaunchConfig{.mode = LaunchMode::kNaive}, LaunchConfig{.warp_size = 6},
        LaunchConfig{.warp_size = 24}}) {
    ASSERT_FALSE(config.vector_tiles());
    const std::string label = "warp " + std::to_string(config.warp_size) +
                              (config.mode == LaunchMode::kNaive ? " naive"
                                                                 : "");
    LaunchStats scalar_stats, built_stats;
    const auto scalar =
        run_momentum(f, Tiles::kScalar, config, nullptr, &scalar_stats);
    const auto built =
        run_momentum(f, Tiles::kAsBuilt, config, nullptr, &built_stats);
    expect_snapshot_bitwise_eq(scalar, built, label);
    expect_counter_parity(scalar_stats, built_stats, label.c_str());
    EXPECT_EQ(built_stats.register_bytes_per_thread,
              scalar_stats.register_bytes_per_thread)
        << label;
    for (const MaskCase& m : masks) {
      LaunchStats masked_stats;
      expect_masked_outputs(
          scalar,
          run_momentum(f, Tiles::kAsBuilt, config, nullptr, &masked_stats,
                       m.data()),
          m.data(), f.p.size(), label + " " + m.name);
      EXPECT_EQ(masked_stats.interactions,
                expected_interactions(f.mesh, f.plan, m.data()))
          << label << " " << m.name;
    }
  }
}

TEST(SimdSupportSurface, ReportsCompiledBackend) {
  const SimdSupport& support = simd_support();
  EXPECT_EQ(support.available, simd::kAvailable);
  EXPECT_STREQ(support.isa, simd::kIsaName);
  if (support.available) {
    EXPECT_EQ(support.width, static_cast<int>(simd::kWidth));
    EXPECT_STREQ(support.isa, "avx2");
  } else {
    EXPECT_EQ(support.width, 0);
    EXPECT_STREQ(support.isa, "none");
  }
}

TEST(SimdParamFile, SimdMathKey) {
  core::SimConfig config;
  const auto fused = core::ParamFile::parse("simd_math = fused\n");
  ASSERT_TRUE(fused.has_value());
  EXPECT_TRUE(fused->apply(config).empty());
  EXPECT_EQ(config.sph.launch.simd_math, SimdMath::kFused);
  EXPECT_EQ(config.gravity.launch.simd_math, SimdMath::kFused);

  const auto exact = core::ParamFile::parse("simd_math = exact\n");
  ASSERT_TRUE(exact.has_value());
  EXPECT_TRUE(exact->apply(config).empty());
  EXPECT_EQ(config.sph.launch.simd_math, SimdMath::kExact);

  // Rejected values keep the previous policy and flag the key.
  config.sph.launch.simd_math = SimdMath::kFused;
  const auto bogus = core::ParamFile::parse("simd_math = sloppy\n");
  ASSERT_TRUE(bogus.has_value());
  EXPECT_EQ(bogus->apply(config).size(), 1u);
  EXPECT_EQ(config.sph.launch.simd_math, SimdMath::kFused);
}

}  // namespace
}  // namespace crkhacc::gpu
