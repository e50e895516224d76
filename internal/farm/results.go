package farm

import (
	"fmt"

	"riskbench/internal/nsp"
)

// SaveResults writes the collected results to path as an nsp list of
// (worker, result) pairs — the paper's master script ends with exactly
// this: save('pb-res.bin', res).
func SaveResults(path string, results []Result) error {
	out := nsp.NewList()
	for _, r := range results {
		pair := nsp.NewList(nsp.Scalar(float64(r.Worker)), r.Value)
		out.Add(pair)
	}
	return nsp.Save(path, out)
}

// LoadResults reads a file written by SaveResults. Error results are
// reconstructed with Err set from their report hashes.
func LoadResults(path string) ([]Result, error) {
	o, err := nsp.Load(path)
	if err != nil {
		return nil, err
	}
	list, ok := o.(*nsp.List)
	if !ok {
		return nil, fmt.Errorf("farm: results file holds %v, want list", o.Kind())
	}
	results := make([]Result, 0, list.Len())
	for i, item := range list.Items {
		pair, ok := item.(*nsp.List)
		if !ok || pair.Len() != 2 {
			return nil, fmt.Errorf("farm: results entry %d malformed", i)
		}
		wm, ok := pair.Items[0].(*nsp.Mat)
		if !ok || wm.Rows != 1 || wm.Cols != 1 {
			return nil, fmt.Errorf("farm: results entry %d has no worker rank", i)
		}
		r, err := readResult(pair.Items[1], int(wm.ScalarValue()))
		if err != nil {
			return nil, fmt.Errorf("farm: results entry %d: %w", i, err)
		}
		results = append(results, r)
	}
	return results, nil
}
