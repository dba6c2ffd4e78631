#include "data/sharding.h"

#include <numeric>

#include "util/common.h"
#include "util/rng.h"

namespace vf {

std::vector<std::int64_t> epoch_permutation(std::int64_t dataset_size,
                                            std::uint64_t seed, std::int64_t epoch) {
  std::vector<std::int64_t> out;
  epoch_permutation_into(dataset_size, seed, epoch, out);
  return out;
}

void epoch_permutation_into(std::int64_t dataset_size, std::uint64_t seed,
                            std::int64_t epoch, std::vector<std::int64_t>& out) {
  check(dataset_size > 0, "dataset must be non-empty");
  check(epoch >= 0, "epoch must be non-negative");
  CounterRng rng(seed, 0x5C0FFEULL + static_cast<std::uint64_t>(epoch));
  rng.permutation_into(dataset_size, out);
}

std::vector<BatchSlice> split_batch(std::int64_t global_batch,
                                    const std::vector<std::int64_t>& shares) {
  check(global_batch > 0, "global batch must be positive");
  check(!shares.empty(), "at least one virtual node required");
  std::int64_t total = 0;
  for (auto s : shares) {
    check(s > 0, "every virtual node must process at least one example");
    total += s;
  }
  check(total == global_batch, [&] {
    return "virtual-node shares (" + std::to_string(total) +
           ") must sum to the global batch (" + std::to_string(global_batch) + ")";
  });

  std::vector<BatchSlice> out;
  out.reserve(shares.size());
  std::int64_t off = 0;
  for (auto s : shares) {
    out.push_back({off, s});
    off += s;
  }
  return out;
}

std::int64_t batches_per_epoch(std::int64_t dataset_size, std::int64_t global_batch) {
  check(global_batch > 0, "global batch must be positive");
  check(dataset_size >= global_batch, [&] {
    return "dataset smaller than one global batch (size " + std::to_string(dataset_size) +
           " < batch " + std::to_string(global_batch) + ")";
  });
  return dataset_size / global_batch;
}

std::vector<std::int64_t> vn_batch_indices(std::int64_t dataset_size,
                                           std::uint64_t seed, std::int64_t epoch,
                                           std::int64_t batch_in_epoch,
                                           std::int64_t global_batch,
                                           const std::vector<BatchSlice>& slices,
                                           std::int64_t vn) {
  check_index(vn, static_cast<std::int64_t>(slices.size()), "virtual node");
  const std::int64_t nb = batches_per_epoch(dataset_size, global_batch);
  check_index(batch_in_epoch, nb, "batch in epoch");

  const auto perm = epoch_permutation(dataset_size, seed, epoch);
  const BatchSlice& slice = slices[static_cast<std::size_t>(vn)];
  const std::int64_t base = batch_in_epoch * global_batch + slice.begin;

  std::vector<std::int64_t> out(static_cast<std::size_t>(slice.count));
  for (std::int64_t k = 0; k < slice.count; ++k)
    out[static_cast<std::size_t>(k)] = perm[static_cast<std::size_t>(base + k)];
  return out;
}

}  // namespace vf
