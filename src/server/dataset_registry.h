#ifndef SPATIALJOIN_SERVER_DATASET_REGISTRY_H_
#define SPATIALJOIN_SERVER_DATASET_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/analysis_annotations.h"
#include "exec/frozen_tree.h"

namespace spatialjoin {
namespace server {

/// One servable dataset: a pair of generalization-tree snapshots. The
/// server executes only over FrozenTree snapshots because the storage
/// layer is single-threaded by design (DESIGN.md §7) while the service
/// runs many queries concurrently — materialization happens once, at
/// registration, on the registering thread, which pays all page I/O up
/// front; after that every query is a pure read.
struct Dataset {
  exec::FrozenTree r_tree;
  exec::FrozenTree s_tree;
};

/// Id → dataset map for the query service. Registration is a setup-phase
/// activity: all datasets are added before Server::Start and the registry
/// is immutable afterwards, so lookups from the I/O loop and pool
/// workers need no lock (the Start call provides the publication edge).
class DatasetRegistry {
 public:
  /// Adds a dataset and returns its wire id (dense, starting at 0).
  /// Datasets are held by unique_ptr so the addresses handed to running
  /// queries stay stable regardless of later additions.
  uint32_t Add(exec::FrozenTree r_tree, exec::FrozenTree s_tree) {
    datasets_.push_back(std::make_unique<Dataset>(
        Dataset{std::move(r_tree), std::move(s_tree)}));
    return static_cast<uint32_t>(datasets_.size() - 1);
  }

  /// The dataset for a wire id, or null for an unknown id.
  /// SJ_VALIDATES: `id` arrives straight off the wire; the range check
  /// against datasets_.size() is the sanitizer that makes the lookup
  /// (and any later use of the id) safe.
  SJ_VALIDATES const Dataset* Find(uint32_t id) const {
    if (id >= datasets_.size()) return nullptr;
    return datasets_[id].get();
  }

  size_t size() const { return datasets_.size(); }

 private:
  std::vector<std::unique_ptr<Dataset>> datasets_;
};

}  // namespace server
}  // namespace spatialjoin

#endif  // SPATIALJOIN_SERVER_DATASET_REGISTRY_H_
