package bench

import (
	"riskbench/internal/farm"
	"riskbench/internal/nsp"
)

// CompressTasks returns a copy of the tasks with flate-compressed payload
// bytes, modelling the paper's proposed future development: problem files
// compressed offline "when preparing a set of problems", so the master
// pays no compression cost at run time while every wire transfer and NFS
// read shrinks. Costs and names are preserved.
//
//lint:allow testonly the compression ablation's entry point: the root bench_test.go benchmark and the ablation test call it, no table does
func CompressTasks(tasks []farm.Task) ([]farm.Task, error) {
	out := make([]farm.Task, len(tasks))
	for i, t := range tasks {
		s := &nsp.Serial{Data: t.Data}
		c, err := s.Compress()
		if err != nil {
			return nil, err
		}
		out[i] = farm.Task{Name: t.Name, Data: c.Data, Cost: t.Cost}
	}
	return out, nil
}
