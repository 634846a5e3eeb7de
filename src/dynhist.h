// Umbrella header for the dynhist library.
//
// dynhist reproduces "Dynamic Histograms: Capturing Evolving Data Sets"
// (Donjerkovic, Ioannidis, Ramakrishnan — ICDE 2000): incrementally
// maintained histograms (DC, DVO, DADO), the static histograms they are
// measured against (Equi-Width/Depth, Compressed, V-Optimal, SADO, SSBM),
// the Approximate-Compressed sampling baseline, quality metrics, synthetic
// workloads, shared-nothing global-histogram construction, and the
// concurrent histogram engine (sharded ingest + epoch snapshots), the
// distributed tier (snapshot frames, site shipper, socket aggregator),
// and the query-feedback self-tuning backend (ST-FEEDBACK).
//
// Include this header for the full public API, or the individual module
// headers for finer-grained dependencies.

#ifndef DYNHIST_DYNHIST_H_
#define DYNHIST_DYNHIST_H_

#include "src/common/math.h"               // IWYU pragma: export
#include "src/common/rng.h"                // IWYU pragma: export
#include "src/common/zipf.h"               // IWYU pragma: export
#include "src/data/cluster_generator.h"    // IWYU pragma: export
#include "src/data/frequency_vector.h"     // IWYU pragma: export
#include "src/data/mailorder_generator.h"  // IWYU pragma: export
#include "src/data/update_stream.h"        // IWYU pragma: export
#include "src/histogram/approximate_compressed.h"  // IWYU pragma: export
#include "src/histogram/budget.h"          // IWYU pragma: export
#include "src/histogram/compiled_snapshot.h"       // IWYU pragma: export
#include "src/histogram/deviation.h"       // IWYU pragma: export
#include "src/histogram/driver.h"          // IWYU pragma: export
#include "src/histogram/dynamic_compressed.h"      // IWYU pragma: export
#include "src/histogram/dynamic_vopt.h"    // IWYU pragma: export
#include "src/histogram/histogram.h"       // IWYU pragma: export
#include "src/histogram/merge.h"           // IWYU pragma: export
#include "src/histogram/model.h"           // IWYU pragma: export
#include "src/histogram/ssbm.h"            // IWYU pragma: export
#include "src/histogram/st_feedback.h"     // IWYU pragma: export
#include "src/histogram/static_compressed.h"       // IWYU pragma: export
#include "src/histogram/static_equi.h"     // IWYU pragma: export
#include "src/histogram/static_voptimal.h"         // IWYU pragma: export
#include "src/cluster/birch1d.h"           // IWYU pragma: export
#include "src/distributed/aggregator.h"    // IWYU pragma: export
#include "src/distributed/frame.h"         // IWYU pragma: export
#include "src/distributed/frame_client.h"  // IWYU pragma: export
#include "src/distributed/frame_server.h"  // IWYU pragma: export
#include "src/distributed/global_histogram.h"      // IWYU pragma: export
#include "src/distributed/net.h"           // IWYU pragma: export
#include "src/distributed/site.h"          // IWYU pragma: export
#include "src/distributed/site_shipper.h"  // IWYU pragma: export
#include "src/distributed/wire_protocol.h" // IWYU pragma: export
#include "src/engine/engine_options.h"     // IWYU pragma: export
#include "src/engine/histogram_engine.h"   // IWYU pragma: export
#include "src/engine/key_handle.h"         // IWYU pragma: export
#include "src/engine/shard.h"              // IWYU pragma: export
#include "src/engine/snapshot.h"           // IWYU pragma: export
#include "src/estimate/feedback_loop.h"    // IWYU pragma: export
#include "src/estimate/selectivity.h"      // IWYU pragma: export
#include "src/metrics/ks.h"                // IWYU pragma: export
#include "src/metrics/query_error.h"       // IWYU pragma: export
#include "src/sampling/reservoir.h"        // IWYU pragma: export

#endif  // DYNHIST_DYNHIST_H_
