package portfolio

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// shrinkable are the numerical-effort parameters that scale task cost
// roughly linearly.
var shrinkable = []string{"paths", "steps", "mcsteps"}

// CalibrateCosts replaces the portfolio's virtual costs with estimates
// measured on this machine: one representative claim per class is
// repriced on one kernel thread at numerical effort scaled down by shrink
// (0 < shrink <= 1), wall time is measured, and the full-effort cost is
// extrapolated linearly. Relative within-class jitter is preserved. This
// turns the paper-calibrated cost model into a locally measured one, so
// simulated sweeps predict this hardware instead of the paper's Xeons.
func (pf *Portfolio) CalibrateCosts(shrink float64) error {
	if shrink <= 0 || shrink > 1 {
		return fmt.Errorf("portfolio: shrink must be in (0,1], got %v", shrink)
	}
	// Group items per class (name prefix before the dash). Classes are
	// measured in sorted order so calibration runs are reproducible
	// run to run (cache warming aside), not map-order shuffled.
	classIdx := map[string][]int{}
	var classes []string
	for i, it := range pf.Items {
		class := strings.SplitN(it.Name, "-", 2)[0]
		if _, ok := classIdx[class]; !ok {
			classes = append(classes, class)
		}
		classIdx[class] = append(classIdx[class], i)
	}
	sort.Strings(classes)
	for _, class := range classes {
		idxs := classIdx[class]
		rep := pf.Items[idxs[0]].Problem.Clone()
		// Shrink the dominant effort axes; remember the combined factor.
		factor := 1.0
		for _, key := range shrinkable {
			v, ok := rep.Params[key]
			if !ok {
				continue
			}
			nv := v * shrink
			if nv < 8 {
				nv = 8
			}
			if nv < v {
				factor *= nv / v
				rep.Set(key, float64(int(nv)))
			}
		}
		// A simulated CPU is one core: time the claim on one, whatever
		// kernel width the process default (SetKernelThreads) sets.
		rep.Set("threads", 1)
		// Calibration's entire purpose is measuring this machine's real
		// speed, so these are deliberate wall reads: a virtual clock
		// would calibrate the simulator against itself.
		//lint:allow wallclock calibration measures real hardware speed by design
		start := time.Now()
		if _, err := rep.Compute(); err != nil {
			return fmt.Errorf("portfolio: calibrate class %s: %w", class, err)
		}
		//lint:allow wallclock calibration measures real hardware speed by design
		measured := time.Since(start).Seconds() / factor
		if measured <= 0 {
			measured = 1e-6
		}
		// Rescale the class, preserving relative jitter.
		avg := 0.0
		for _, i := range idxs {
			avg += pf.Items[i].Cost
		}
		avg /= float64(len(idxs))
		if avg <= 0 {
			continue
		}
		for _, i := range idxs {
			pf.Items[i].Cost = measured * pf.Items[i].Cost / avg
		}
	}
	return nil
}
