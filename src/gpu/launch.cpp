#include "gpu/launch.h"

#include "tree/chaining_mesh.h"
#include "util/assertions.h"

namespace crkhacc::gpu {

LaunchPlan::LaunchPlan(const tree::ChainingMesh& cm,
                       std::span<const Pair> pairs) {
  const std::size_t nleaves = cm.num_leaves();
  const std::size_t nids = cm.num_leaf_ids();

  // Pass 1: entries per leaf. A self pair is one both-sides entry on its
  // owner; a cross pair is one entry on each owner — on a periodic mesh
  // the second owner is the image partner's base leaf.
  std::vector<std::uint32_t> count(nleaves, 0);
  for (const auto& [la, lb] : pairs) {
    CHECK_MSG(la < nleaves && lb < nids && la <= cm.base_leaf(lb),
              "interaction pair is not (i <= j) within the mesh");
    ++count[la];
    if (lb != la) ++count[cm.base_leaf(lb)];
  }

  // CSR offsets over ALL leaves (zero-count leaves collapse to empty
  // ranges and are dropped from owners_ below).
  std::vector<std::uint32_t> offset(nleaves + 1, 0);
  for (std::size_t l = 0; l < nleaves; ++l) {
    offset[l + 1] = offset[l] + count[l];
  }
  entries_.resize(offset[nleaves]);

  // Pass 2: scatter in pair order. Cursors advance monotonically, so each
  // owner's entries end up ordered by the pair index they came from —
  // the invariant the bitwise-determinism argument rests on. The j-side
  // entry of (A, B + s) sits on B with partner A - s (cm.mirror).
  std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
  for (const auto& [la, lb] : pairs) {
    if (la == lb) {
      entries_[cursor[la]++] = Entry{lb, Side::kBoth};
    } else {
      entries_[cursor[la]++] = Entry{lb, Side::kISide};
      entries_[cursor[cm.base_leaf(lb)]++] =
          Entry{cm.mirror(la, lb), Side::kJSide};
    }
  }

  owners_.reserve(nleaves);
  entry_begin_.reserve(nleaves + 1);
  for (std::size_t l = 0; l < nleaves; ++l) {
    if (count[l] == 0) continue;
    owners_.push_back(static_cast<std::uint32_t>(l));
    entry_begin_.push_back(offset[l]);
  }
  entry_begin_.push_back(offset[nleaves]);
}

LaunchPlan LaunchPlan::from_owner_tasks(std::vector<std::uint32_t> owners,
                                        std::vector<std::uint32_t> entry_begin,
                                        std::vector<Entry> entries) {
  CHECK_MSG(entry_begin.size() == owners.size() + 1,
            "owner-task CSR offsets must have owners + 1 entries");
  CHECK_MSG(entry_begin.empty() || entry_begin.back() == entries.size(),
            "owner-task CSR offsets must cover the entry array");
  LaunchPlan plan;
  plan.owners_ = std::move(owners);
  plan.entry_begin_ = std::move(entry_begin);
  plan.entries_ = std::move(entries);
  return plan;
}

}  // namespace crkhacc::gpu
