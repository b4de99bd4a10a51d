#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "exec/elastic.hpp"
#include "exec/storage.hpp"
#include "sparse/csr.hpp"

/// \file slab.hpp
/// Thread-local packed matrix storage for the solve hot path (the
/// StorageKind::kSlab layout — see storage.hpp for the contract).
///
/// The shared-CSR walk touches four scattered arrays per row (row_ptr,
/// col_idx, values, plus the work list) and interleaves every thread's
/// reads through the same cache lines. A slab plan removes both costs:
/// from a team's folded execution plan, each thread's rows are
/// packed — in that thread's execution order — into a private,
/// cache-line-aligned byte slab of interleaved records
///
///   { row, nnz | diag | cols[nnz] (padded to 8) | vals[nnz] }
///
/// so the hot loop advances one pointer through memory it owns
/// exclusively, with the diagonal in the same cache line as the header
/// and zero row_ptr indirection. Slabs duplicate matrix data per plan by
/// design, and only executors analyzed for kSlab build them: the one-time
/// build cost is cached per team in the executors' TeamPlanCache,
/// amortizing across solves exactly like the folded work lists (the
/// paper's Table 7.6 amortization argument applied to storage).
///
/// A slab stores the SAME off-diagonal cols/vals in the SAME (CSR) order
/// and the same diagonal as the shared matrix, so walking it executes the
/// identical arithmetic sequence per row — the bitwise-equality contract
/// of row_kernels.hpp carries over unchanged.

/// Software prefetch of the next slab record: the record stream is
/// perfectly sequential, so the walker can hide the latency of the next
/// header + diag line behind the current row's arithmetic.
#if defined(__GNUC__) || defined(__clang__)
#define STS_SLAB_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define STS_SLAB_PREFETCH(addr) ((void)(addr))
#endif

namespace sts::exec::detail {

/// Slab base alignment: one x86 cache line (also a safe over-alignment
/// for every record field, which are laid out on 8-byte boundaries).
inline constexpr std::size_t kSlabAlignment = 64;

/// Leading 8 bytes of every record.
struct SlabRecordHeader {
  std::uint32_t row = 0;  ///< vertex this record solves
  std::uint32_t nnz = 0;  ///< off-diagonal entry count
};
static_assert(sizeof(SlabRecordHeader) == 8);

/// cols[nnz] rounded up to the next 8-byte boundary so vals stays aligned.
inline std::size_t slabColsBytes(std::size_t nnz) {
  return (nnz * sizeof(sts::index_t) + 7u) & ~std::size_t{7};
}

/// Total bytes of one record: header + diag + padded cols + vals.
inline std::size_t slabRecordBytes(std::size_t nnz) {
  return sizeof(SlabRecordHeader) + sizeof(double) + slabColsBytes(nnz) +
         nnz * sizeof(double);
}

/// Decoded record at `p` (which must be a record boundary inside a slab;
/// all fields are 8-byte aligned there, so the reinterpret_casts are
/// alignment-safe).
struct SlabRecordView {
  sts::index_t row = 0;
  std::size_t nnz = 0;
  double diag = 0.0;
  const sts::index_t* cols = nullptr;
  const double* vals = nullptr;
  const std::byte* next = nullptr;  ///< the following record boundary
};

inline SlabRecordView slabRecordAt(const std::byte* p) {
  SlabRecordHeader header;
  std::memcpy(&header, p, sizeof header);
  SlabRecordView view;
  view.row = static_cast<sts::index_t>(header.row);
  view.nnz = header.nnz;
  std::memcpy(&view.diag, p + sizeof header, sizeof(double));
  const std::byte* cols = p + sizeof header + sizeof(double);
  view.cols = reinterpret_cast<const sts::index_t*>(cols);
  view.vals = reinterpret_cast<const double*>(cols + slabColsBytes(view.nnz));
  view.next = cols + slabColsBytes(view.nnz) + view.nnz * sizeof(double);
  return view;
}

/// Owning byte buffer whose data() is kSlabAlignment-aligned. Movable;
/// the aligned base stays valid across moves (heap storage never
/// relocates).
class AlignedBytes {
 public:
  AlignedBytes() = default;
  explicit AlignedBytes(std::size_t bytes);

  AlignedBytes(AlignedBytes&&) = default;
  AlignedBytes& operator=(AlignedBytes&&) = default;

  std::byte* data() { return base_; }
  const std::byte* data() const { return base_; }
  std::size_t size() const { return size_; }

 private:
  std::unique_ptr<std::byte[]> raw_;
  std::byte* base_ = nullptr;
  std::size_t size_ = 0;
};

/// One thread's private storage: the packed record stream plus its
/// superstep boundaries (records of superstep s are numbers
/// [step_ptr[s], step_ptr[s+1]) in stream order — a copy of the folded
/// work list's boundaries, so the superstep walk knows where its peer
/// waits and progress stores go).
struct SlabThread {
  AlignedBytes bytes;
  std::vector<sts::offset_t> step_ptr;
};

/// The slab storage plan of one team: thread t of the folded execution
/// streams threads[t]. Immutable once built; cached with the team's folded
/// work lists.
struct SlabPlan {
  std::vector<SlabThread> threads;
};

/// Packs each thread's rows of `lists` — in execution order — into its
/// private slab. Row data comes from `lower`: off-diagonal cols/vals in
/// CSR (ascending-column) order, the diagonal from the row's last stored
/// entry, exactly the operands the shared-CSR kernels read.
SlabPlan buildSlabPlan(const sparse::CsrMatrix& lower,
                       const FoldedLists& lists);

/// THE slab stream, shared by every slab walk so the hot loop cannot
/// diverge between executors (the same single-definition argument as
/// row_kernels.hpp): one thread's cursor over its records in stream order,
/// prefetching each next record. forEach(s, row) calls `row(rec)` for
/// every record of superstep s and may run again on the same superstep
/// (the tiled walk replays a superstep's records once per RHS column tile
/// — the matrix bytes re-stream while the dense tile stays cache-resident);
/// endStep() then moves the cursor to the next superstep's records.
class SlabStream {
 public:
  explicit SlabStream(const SlabThread& slab)
      : ptr_(slab.step_ptr.data()), step_begin_(slab.bytes.data()),
        step_end_(step_begin_) {}

  template <typename RowFn>
  void forEach(sts::index_t s, RowFn&& row) {
    const auto count =
        static_cast<std::size_t>(ptr_[static_cast<std::size_t>(s) + 1] -
                                 ptr_[static_cast<std::size_t>(s)]);
    const std::byte* p = step_begin_;
    for (std::size_t k = 0; k < count; ++k) {
      const SlabRecordView rec = slabRecordAt(p);
      STS_SLAB_PREFETCH(rec.next);
      row(rec);
      p = rec.next;
    }
    step_end_ = p;
  }

  void endStep() { step_begin_ = step_end_; }

 private:
  const sts::offset_t* ptr_;
  const std::byte* step_begin_;
  const std::byte* step_end_;
};

/// Bytes one full sweep streams from the plan's record slabs (summed over
/// threads); the slab side of the bytesMoved() accounting tools/roofline.py
/// consumes. Tiled walks re-stream this once per tile.
inline std::size_t slabBytesMoved(const SlabPlan& plan) {
  std::size_t total = 0;
  for (const auto& thread : plan.threads) total += thread.bytes.size();
  return total;
}

}  // namespace sts::exec::detail
