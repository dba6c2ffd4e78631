// Virtual nodes and the VN -> device mapping (Figs 1 and 3 of the paper).
//
// The mapping is the ONLY place where hardware configuration lives. The
// model, the hyperparameters, and the data pipeline reference virtual
// nodes exclusively; changing the mapping (resize, heterogeneous split,
// different cluster) must not change training semantics. Invariants:
//   * every virtual node id in [0, V) is assigned to exactly one device;
//   * per-VN batch sizes are positive and sum to the global batch;
//   * VN ids, not device ids, determine which slice of the global batch a
//     VN processes (in ascending VN-id order).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/sharding.h"
#include "device/spec.h"

namespace vf {

/// One virtual node: a logical worker with a fixed share of each global
/// batch. Identity is the id; placement is the mapping's business.
struct VirtualNode {
  std::int32_t id = 0;
  std::int64_t batch_size = 0;
};

/// Assignment of virtual nodes to devices.
class VnMapping {
 public:
  /// Even mapping: `total_vns` equal VNs over `num_devices` devices, each
  /// VN processing global_batch / total_vns examples. VNs are distributed
  /// contiguously (device d gets a block of V/D VNs, with the first
  /// (V mod D) devices taking one extra).
  static VnMapping even(std::int64_t total_vns, std::int64_t num_devices,
                        std::int64_t global_batch);

  /// Fully general mapping: per_device[d] lists the batch sizes of the VNs
  /// placed on device d, in execution order. VN ids are assigned in
  /// (device, position) order: device 0's VNs first, then device 1's, ...
  static VnMapping uneven(const std::vector<std::vector<std::int64_t>>& per_device);

  /// Remaps existing virtual nodes onto a different device count, keeping
  /// VN ids and batch sizes (the elastic resize of §4.1). VNs are
  /// redistributed contiguously.
  VnMapping redistributed(std::int64_t new_num_devices) const;

  std::int64_t num_devices() const { return static_cast<std::int64_t>(device_vns_.size()); }
  std::int64_t total_vns() const { return static_cast<std::int64_t>(vn_batches_.size()); }
  std::int64_t global_batch() const;

  /// VN ids on device d, in execution order.
  const std::vector<std::int32_t>& device_vns(std::int64_t d) const;

  /// Batch size of VN `vn`.
  std::int64_t vn_batch(std::int32_t vn) const;

  /// Micro-batch sizes of the VNs on device d, in execution order.
  const std::vector<std::int64_t>& device_batches(std::int64_t d) const;

  /// Total examples processed by device d per step (its local batch).
  std::int64_t device_batch_total(std::int64_t d) const;

  /// Per-VN batch sizes in ascending VN-id order; the data pipeline's
  /// shares (see data/sharding.h).
  std::vector<std::int64_t> shares() const { return vn_batches_; }

  /// Batch slices per VN in ascending VN-id order.
  const std::vector<BatchSlice>& slices() const { return slices_; }

  /// Device index hosting VN `vn`.
  std::int64_t device_of(std::int32_t vn) const;

  /// Human-readable summary, e.g. "4 devices x 4 VN x 512".
  std::string describe() const;

 private:
  VnMapping() = default;
  /// Checks the invariants, then derives the per-device batches and the
  /// slices (a mapping never changes once built, and the engine reads
  /// both on every step).
  void finish();

  std::vector<std::vector<std::int32_t>> device_vns_;  // device -> VN ids
  std::vector<std::int64_t> vn_batches_;               // VN id -> batch size
  std::vector<std::vector<std::int64_t>> device_batches_;
  std::vector<BatchSlice> slices_;
};

}  // namespace vf
