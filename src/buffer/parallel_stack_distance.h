#ifndef EPFIS_BUFFER_PARALLEL_STACK_DISTANCE_H_
#define EPFIS_BUFFER_PARALLEL_STACK_DISTANCE_H_

#include <cstddef>

#include "buffer/sampling.h"
#include "buffer/stack_distance.h"
#include "epfis/trace_source.h"
#include "util/cancel.h"
#include "util/result.h"

namespace epfis {

class ThreadPool;

/// Tuning knobs for the sharded stack-distance computation.
struct StackDistanceOptions {
  /// Number of trace shards. 0 picks 4 shards per pool worker: smaller
  /// shards shrink the merge tail of the last shard, which the streaming
  /// merge cannot hide (see DESIGN.md §15). More shards than workers is
  /// fine (they queue); results are independent of the shard count.
  size_t num_shards = 0;

  /// Floor on the references per shard, so tiny traces are not split into
  /// shards whose fixed costs dominate. Tests lower this to exercise
  /// many-shard merges on small traces.
  size_t min_shard_refs = 4096;

  /// SHARDS spatial sampling (ComputeSampledStackDistances only; the
  /// exact entry point rejects it). In fixed-rate mode every shard shares
  /// the one static threshold — the filter runs in the streaming chunk
  /// fill, so shards only ever see the sampled sub-trace and the merge is
  /// the exact algorithm over it. The fixed-size adaptive mode needs a
  /// globally evolving threshold, which shards cannot agree on without
  /// serializing, so it always runs on the serial kernel (see DESIGN.md
  /// §10).
  SamplingOptions sampling;

  /// Cooperative cancellation: polled per streamed chunk by the reader,
  /// per ~64K references inside each shard pass, and before every merge
  /// step. A fired token surfaces as Status::Cancelled after every
  /// in-flight shard future has drained (the same first-error-drain path
  /// a failed shard takes), so no task outlives the call. The default
  /// null token costs one branch per poll.
  CancellationToken cancel;

  /// Wall-clock budget for the whole computation; checked at the same
  /// poll points as `cancel` and surfaces as Status::DeadlineExceeded.
  /// Defaults to infinite.
  Deadline deadline;
};

/// Computes the LRU stack-distance histogram of `trace`.
///
/// With `pool == nullptr` (or a single worker) this streams the trace
/// through the serial StackDistanceKernel. Otherwise the trace is split
/// into shards processed concurrently on `pool`, and a sequential merge,
/// streamed on the calling thread as shards finish, resolves the
/// references whose previous access lies in an earlier shard (see
/// DESIGN.md §7 for the algorithm and the exactness argument).
/// Both paths produce bit-identical histograms: the parallel result equals
/// the serial simulator's on every trace, by construction, and the
/// property tests assert it.
///
/// The trace is consumed in chunks and never materialized whole; peak
/// memory is O(in-flight shards + distinct pages per shard).
///
/// Fails with InvalidArgument on an empty trace, or if `options.sampling`
/// requests sampling (use ComputeSampledStackDistances — an exact entry
/// point silently downgraded to an estimate would be a trap).
Result<StackDistanceHistogram> ComputeStackDistances(
    TraceSource& trace, ThreadPool* pool = nullptr,
    const StackDistanceOptions& options = {});

/// Sampling-aware variant: applies `options.sampling` and returns the
/// histogram together with its sampling provenance, wrapped in the
/// rescaling accessors of SampledStackDistances. With sampling disabled
/// this is ComputeStackDistances plus an exact summary, bit-identical to
/// the exact paths. Serial and sharded runs of the same fixed-rate
/// configuration produce identical results (the scaled emission and the
/// bucket rescale after the merge compute the same values), which the
/// property tests assert across shard counts.
///
/// Fails with InvalidArgument on invalid sampling options, on an empty
/// trace, and with FailedPrecondition when the trace is non-empty but no
/// reference survived the filter (the rate is too low for the trace; an
/// all-zero curve would be an estimate of nothing).
Result<SampledStackDistances> ComputeSampledStackDistances(
    TraceSource& trace, ThreadPool* pool = nullptr,
    const StackDistanceOptions& options = {});

}  // namespace epfis

#endif  // EPFIS_BUFFER_PARALLEL_STACK_DISTANCE_H_
