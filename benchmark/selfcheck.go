package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchFile is BENCHMARK.json, the contract the driver reads. The
// binary reads it for the regression bounds, so they are written down
// once.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runSelfcheck answers "does the grid repeat on this box?": two sets of
// k runs of every workload on the current tree, each run with its own
// seed, compared cell by cell. A cell fails when its two set-medians
// differ by more than the cell's regression bound — a harness that
// cannot tell a tree from itself cannot tell it from its parent.
func runSelfcheck(ctx context.Context, bin string, seed uint64, seconds, k int) error {
	file, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	// cells[set][workload][metric] are the k runs' values.
	var cells [2]map[string]map[string][]float64
	failedOps := 0
	for set := range cells {
		cells[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			cells[set][w.name] = map[string][]float64{}
			for i := 0; i < k; i++ {
				out, err := runWorkload(ctx, bin, w, seed+uint64(set*k+i), seconds)
				if err != nil {
					return err
				}
				failedOps += out.Failed
				for _, p := range out.problems {
					fmt.Fprintln(os.Stderr, "  FAILED", p)
				}
				for _, m := range endToEndUnits {
					cells[set][w.name][m.name] = append(cells[set][w.name][m.name], out.Metrics[m.name].Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d, %s, run %d of %d done\n", set+1, w.name, i+1, k)
			}
		}
	}
	fmt.Printf("%-14s %-20s %14s %14s %8s %8s %8s %7s\n",
		"workload", "metric", "median set 1", "median set 2", "diff", "spread1", "spread2", "bound")
	bad := 0
	for _, w := range workloads {
		for _, m := range file.EndToEnd {
			a, b := cells[0][w.name][m.Name], cells[1][w.name][m.Name]
			ma, mb := median(a), median(b)
			diff := math.Abs(mb-ma) / ma
			verdict := ""
			if !(diff <= m.Bound) {
				verdict = "  FAIL"
				bad++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %7.2f%% %7.2f%% %7.2f%% %6.0f%%%s\n",
				w.name, m.Name, ma, mb, diff*100, quartileSpread(a)*100, quartileSpread(b)*100, m.Bound*100, verdict)
		}
	}
	switch {
	case failedOps > 0:
		return fmt.Errorf("selfcheck: %d operations failed", failedOps)
	case bad > 0:
		return fmt.Errorf("selfcheck: %d of %d cells differ between two sets of the same code by more than their bound", bad, len(workloads)*len(file.EndToEnd))
	}
	return nil
}
