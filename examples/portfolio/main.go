// Portfolio valuation on a live local farm: the paper's Fig. 4–5 workflow
// end-to-end — generate a portfolio of problem files, farm it over worker
// goroutines with the Robin-Hood scheduler (farm.Local runs the whole
// round in process), and compare the three communication strategies on
// real computations.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
)

func main() {
	// A scaled-down cousin of the paper's toy portfolio: 2,000 closed-form
	// vanilla calls, so everything runs in seconds.
	pf := portfolio.Toy(2000)
	tasks, err := pf.Tasks()
	if err != nil {
		log.Fatal(err)
	}
	store := farm.MemStore{}
	for _, t := range tasks {
		store[t.Name] = t.Data
	}
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	fmt.Printf("pricing %d claims on %d live workers\n\n", len(tasks), workers)

	for _, strat := range []farm.Strategy{farm.FullLoad, farm.NFSLoad, farm.SerializedLoad} {
		start := time.Now()
		results, err := farm.Local{Store: store}.Run(context.Background(), tasks, farm.Options{Strategy: strat}, workers)
		if err != nil {
			log.Fatalf("farm (%v): %v", strat, err)
		}
		sum := 0.0
		perWorker := map[int]int{}
		for _, r := range results {
			if p, err := farm.AsPriced(r); err == nil {
				sum += p.Result.Price
			}
			perWorker[r.Worker]++
		}
		fmt.Printf("%-16s %8v   portfolio value %.2f   tasks/worker %v\n",
			strat, time.Since(start).Round(time.Millisecond), sum, counts(perWorker, workers))
	}
}

func counts(m map[int]int, workers int) []int {
	out := make([]int, workers)
	for w, n := range m {
		out[w-1] = n
	}
	return out
}
