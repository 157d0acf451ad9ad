// 3-D Morton (Z-order) codes.
//
// Used by the LBVH construction in tree/lbvh.h: particles are sorted by
// the Morton code of their quantized position, giving a spatially coherent
// ordering that the BVH builder splits at the count midpoint of each
// range until a range fits in one leaf.
#pragma once

#include <cstdint>

namespace crkhacc {

/// Interleave the low 21 bits of x,y,z into a 63-bit Morton code.
std::uint64_t morton3d(std::uint32_t x, std::uint32_t y, std::uint32_t z);

/// Inverse of morton3d: extract the three 21-bit coordinates.
void morton3d_decode(std::uint64_t code, std::uint32_t& x, std::uint32_t& y,
                     std::uint32_t& z);

/// Quantize a position in [0, box) to a 21-bit grid coordinate.
std::uint32_t quantize21(double value, double box);

}  // namespace crkhacc
