// Interval sampling: BAM price series on the ∆s grid.
//
// The strategy works on a discretized clock (interval index s).
// sample_bam_series produces, per symbol, the bid-ask-midpoint price at the
// end of every ∆s interval (carrying the last observation forward through
// quiet intervals, as the paper's use of BAM for thinly traded stocks
// implies). It is the batch form of the pipeline's snapshot stage
// (engine::make_snapshot_stage), which samples the same grid from a stream.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "marketdata/calendar.hpp"
#include "marketdata/types.hpp"

namespace mm::md {

// Batch helper used by the backtester: a [symbol][interval] matrix of BAM
// prices. Intervals before a symbol's first quote hold its first observed
// price (backfill), so return series start flat rather than with a fake jump.
std::vector<std::vector<double>> sample_bam_series(const std::vector<Quote>& quotes,
                                                   std::size_t symbol_count,
                                                   const Session& session,
                                                   std::int64_t delta_s);

// Log-return series from a price series: r[t] = log(p[t] / p[t-1]); output
// has size one less than input. The paper's correlation inputs are the last M
// log-returns per stock (§III).
std::vector<double> log_returns(const std::vector<double>& prices);

}  // namespace mm::md
