#pragma once

#include <string>

/// \file storage.hpp
/// The matrix-storage setting of the solve hot path, fixed at analysis
/// (SolverOptions::storage, passed into the executor constructors). Every
/// executor can walk the matrix through two layouts:
///
///   * kSharedCsr — the one CSR the solver was analyzed on, indexed
///     through row_ptr/col_idx per vertex (the historical layout; rows of
///     one thread's work list are scattered across the shared arrays).
///   * kSlab — a per-team THREAD-LOCAL repack: each
///     thread's rows, in execution order, packed into a private
///     cache-line-aligned slab of interleaved {row, nnz, diag, cols[],
///     vals[]} records (exec/slab.hpp). The hot loop streams its own
///     contiguous memory with zero row_ptr indirection and no cross-thread
///     sharing of matrix data; slabs are cached beside the folded work
///     lists so the one-time build amortizes across solves exactly like
///     plans do (the Table 7.6 argument applied to storage).
///
/// Storage is a pure layout choice: both walks execute the same rows in
/// the same order with the same operands, so results are bitwise
/// identical (tests/test_slab.cpp pins this for every executor kind x
/// team x fold policy x nrhs).

namespace sts::exec {

enum class StorageKind {
  kSharedCsr = 0,  ///< walk the shared CSR through row_ptr/col_idx
  kSlab = 1,       ///< stream per-thread packed row records
};

inline std::string storageKindName(StorageKind storage) {
  switch (storage) {
    case StorageKind::kSharedCsr: return "shared-csr";
    case StorageKind::kSlab: return "slab";
  }
  return "?";
}

}  // namespace sts::exec
