// Package metrictest seeds metric/span name literals on both sides of
// the dotted grammar the Prometheus rank-folding exporter parses.
package metrictest

import (
	"fmt"

	"riskbench/internal/telemetry"
)

var reg = telemetry.New()

func good() {
	reg.Counter("serve.cache.hits").Add(1)
	reg.Gauge("farm.queue.depth").Set(3)
	reg.Observe("premia.kernel.shard_seconds", 0.5)
	reg.Counter("farm.worker." + rankString() + ".tasks").Add(1)
	reg.Counter(fmt.Sprintf("mpi.rank%d.bytes_sent", 3)).Add(1)
	reg.StartSpan("risk.price_batch").End()
	reg.Emit(telemetry.LevelWarn, "farm.task.fail", telemetry.TraceContext{})
}

func bad() {
	reg.Counter("Requests").Add(1)                            // want `does not match the dotted grammar`
	reg.Gauge("serve").Set(1)                                 // want `does not match the dotted grammar`
	reg.Histogram("serve.Batch.Size").Observe(1)              // want `does not match the dotted grammar`
	reg.Counter("serve." + rankString() + " total").Add(1)    // want `fragment " total"`
	reg.Observe(fmt.Sprintf("farm worker %d", 2), 1.0)        // want `does not match the dotted grammar`
	reg.Emit(telemetry.LevelError, "WorkerDied", telemetry.TraceContext{})           // want `does not match the dotted grammar`
	//lint:allow metricnames fixture: legacy dashboard name kept for continuity
	reg.Counter("Legacy-Series").Add(1)
}

func rankString() string { return "7" }
