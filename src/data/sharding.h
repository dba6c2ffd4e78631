// Deterministic epoch shuffling and exactly-once (possibly uneven) sharding.
//
// §5.2 of the paper: "existing sharding techniques assume the batch is
// split evenly across the accelerators. Naively reusing these techniques
// for heterogeneous training will result in certain input examples being
// observed more often than others." This module owns the invariant that
// every example index in an epoch is assigned to exactly one virtual node,
// even when per-VN batch shares are unequal.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace vf {

/// Deterministic permutation of the dataset for a given epoch. Pure
/// function of (seed, epoch) — independent of devices and mappings.
std::vector<std::int64_t> epoch_permutation(std::int64_t dataset_size,
                                            std::uint64_t seed, std::int64_t epoch);
/// The same permutation written into `out`, reusing its buffer.
void epoch_permutation_into(std::int64_t dataset_size, std::uint64_t seed,
                            std::int64_t epoch, std::vector<std::int64_t>& out);

/// Per-VN slice of one global batch: contiguous range in the permuted
/// epoch order.
struct BatchSlice {
  std::int64_t begin = 0;  ///< offset within the global batch
  std::int64_t count = 0;  ///< number of examples for this VN
};

/// Splits a global batch of size B into slices proportional to `shares`
/// (one entry per virtual node; shares are the per-VN batch sizes and must
/// sum to B). Returns one contiguous slice per VN, in VN-id order, covering
/// [0, B) exactly once.
std::vector<BatchSlice> split_batch(std::int64_t global_batch,
                                    const std::vector<std::int64_t>& shares);

/// Produces the dataset indices for virtual node `vn` in global batch
/// number `batch_in_epoch` of `epoch`. Batches tile the permuted epoch;
/// the final partial batch of an epoch is dropped (standard drop-remainder
/// semantics, which keeps the global batch size constant as the paper's
/// convergence argument requires).
std::vector<std::int64_t> vn_batch_indices(std::int64_t dataset_size,
                                           std::uint64_t seed, std::int64_t epoch,
                                           std::int64_t batch_in_epoch,
                                           std::int64_t global_batch,
                                           const std::vector<BatchSlice>& slices,
                                           std::int64_t vn);

/// Number of full global batches in one epoch (drop-remainder).
std::int64_t batches_per_epoch(std::int64_t dataset_size, std::int64_t global_batch);

}  // namespace vf
