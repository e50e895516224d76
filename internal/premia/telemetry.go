package premia

import "riskbench/internal/telemetry"

// Compute takes no registry (it mirrors Premia's P.compute[]), so the
// package's instruments book into the process sink, telemetry.Process().

// countError increments the pricing-error counter (no-op without a sink).
func countError() {
	telemetry.Process().Counter("premia.errors").Add(1)
}

// instruments are the sink's per-method metrics, resolved by name once:
// the "premia.compute_seconds.<method>" latency histogram, the
// "premia.computes" counter and the "premia.work_units.<method>"
// cumulative work gauge (the method's abstract operation count, the
// simulator's cost currency). Without a sink they are the zero value,
// whose nil registry and metrics record nothing.
type instruments struct {
	reg      *telemetry.Registry
	seconds  *telemetry.Histogram
	computes *telemetry.Counter
	work     *telemetry.Gauge
}

func instrumentsOf(method string) instruments {
	reg := telemetry.Process()
	if reg == nil {
		return instruments{}
	}
	return instruments{
		reg:      reg,
		seconds:  reg.Histogram("premia.compute_seconds." + method),
		computes: reg.Counter("premia.computes"),
		work:     reg.Gauge("premia.work_units." + method),
	}
}

// record books n kernel calls that ran back to back from start on the
// sink's clock until now and did work units between them: n computes,
// each observed at their mean time, and the work added once. The metrics
// count kernel calls, however many record was given at a time.
func (in instruments) record(start float64, n int, work float64) {
	in.seconds.ObserveN((in.reg.Now()-start)/float64(n), int64(n))
	in.computes.Add(int64(n))
	in.work.Add(work)
}
