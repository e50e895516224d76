package farm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"riskbench/internal/nsp"
)

// flakyExecutor fails the first `failures` attempts of each task whose
// name contains the trigger substring, then succeeds — with inner's
// answer when there is one, a fixed price otherwise. It is shared across
// worker goroutines, hence the mutex.
type flakyExecutor struct {
	mu       sync.Mutex
	trigger  string
	failures int
	attempts map[string]int
	inner    Executor
}

func newFlaky(trigger string, failures int) *flakyExecutor {
	return &flakyExecutor{trigger: trigger, failures: failures, attempts: make(map[string]int)}
}

func (f *flakyExecutor) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	f.mu.Lock()
	f.attempts[name]++
	n := f.attempts[name]
	f.mu.Unlock()
	if strings.Contains(name, f.trigger) && n <= f.failures {
		return nil, fmt.Errorf("injected failure #%d", n)
	}
	if f.inner != nil {
		return f.inner.Execute(name, payload, cost, size)
	}
	return testResult(name, 42), nil
}

// brokenExecutor always fails.
type brokenExecutor struct{}

func (brokenExecutor) Execute(name string, payload []byte, cost float64, size int) (nsp.Object, error) {
	return nil, errors.New("permanently broken")
}

func runFlakyFarm(t *testing.T, run masterFunc, exec Executor, n, workers int, opts Options) []Result {
	t.Helper()
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Name: fmt.Sprintf("job-%02d", i), Data: []byte("x")}
	}
	return runFarm(t, run, exec, tasks, workers, opts, nil)
}

func TestRetryRecoversTransientFailures(t *testing.T) {
	for _, sched := range schedulers {
		t.Run(sched.name, func(t *testing.T) {
			// Every task fails once, succeeds on retry: with MaxRetries 2
			// the farm must deliver every result error-free.
			exec := newFlaky("job", 1)
			results := runFlakyFarm(t, sched.run, exec, 20, 3, Options{Strategy: SerializedLoad, MaxRetries: 2})
			if len(results) != 20 {
				t.Fatalf("%d results, want 20", len(results))
			}
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("%s still failed: %v", r.Name, r.Err)
				}
				if price, ok := priceOf(r); !ok || price != 42 {
					t.Errorf("%s: price missing after retry", r.Name)
				}
			}
			// Each task was attempted exactly twice.
			for name, n := range exec.attempts {
				if n != 2 {
					t.Errorf("%s attempted %d times, want 2", name, n)
				}
			}
		})
	}
}

func TestNoRetryReportsErrors(t *testing.T) {
	for _, sched := range schedulers {
		t.Run(sched.name, func(t *testing.T) {
			exec := newFlaky("job-0", 1) // job-00..job-09 fail once
			results := runFlakyFarm(t, sched.run, exec, 15, 2, Options{Strategy: SerializedLoad})
			failed, succeeded := 0, 0
			for _, r := range results {
				if r.Err != nil {
					failed++
					if !strings.Contains(r.Err.Error(), "injected failure") {
						t.Errorf("error lost its cause: %v", r.Err)
					}
				} else {
					succeeded++
				}
			}
			if failed != 10 || succeeded != 5 {
				t.Fatalf("failed=%d succeeded=%d, want 10/5", failed, succeeded)
			}
		})
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	for _, sched := range schedulers {
		t.Run(sched.name, func(t *testing.T) {
			results := runFlakyFarm(t, sched.run, brokenExecutor{}, 8, 2, Options{Strategy: SerializedLoad, MaxRetries: 3})
			if len(results) != 8 {
				t.Fatalf("%d results, want 8", len(results))
			}
			for _, r := range results {
				if r.Err == nil {
					t.Errorf("%s unexpectedly succeeded", r.Name)
				}
				if r.Value == nil {
					t.Errorf("%s: error result lost its report hash", r.Name)
				}
			}
		})
	}
}

func TestRetryWithinBatches(t *testing.T) {
	for _, sched := range schedulers {
		t.Run(sched.name, func(t *testing.T) {
			// Failures inside multi-task batches are retried individually,
			// and the healthy tasks of the batch are not recomputed.
			exec := newFlaky("job-03", 1)
			results := runFlakyFarm(t, sched.run, exec, 12, 2, Options{Strategy: SerializedLoad, BatchSize: 4, MaxRetries: 1})
			if len(results) != 12 {
				t.Fatalf("%d results, want 12", len(results))
			}
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("%s failed: %v", r.Name, r.Err)
				}
			}
			for name, n := range exec.attempts {
				want := 1
				if name == "job-03" {
					want = 2
				}
				if n != want {
					t.Errorf("%s attempted %d times, want %d", name, n, want)
				}
			}
		})
	}
}

func TestRetryInHierarchy(t *testing.T) {
	// Pricing errors propagate through sub-masters back to the root with
	// Err set (retries happen at the sub-master tier).
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = Task{Name: fmt.Sprintf("job-%02d", i), Data: []byte("x")}
	}
	exec := newFlaky("job", 1) // every task fails once
	results, err := Local{Exec: exec, Groups: 2, Chunk: 3}.Run(context.Background(), tasks,
		Options{Strategy: SerializedLoad, MaxRetries: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("%d results, want 10", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s failed despite sub-master retry: %v", r.Name, r.Err)
		}
	}
}

func TestSaveLoadResults(t *testing.T) {
	tasks, want := makePortfolio(t, 10)
	results := runLocalFarm(t, tasks, 2, Options{Strategy: SerializedLoad}, nil)
	path := t.TempDir() + "/pb-res.bin"
	if err := SaveResults(path, results); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Fatalf("%d results back, want %d", len(back), len(results))
	}
	for i, r := range back {
		if r.Name != results[i].Name || r.Worker != results[i].Worker {
			t.Fatalf("entry %d metadata mismatch", i)
		}
		price, ok := priceOf(r)
		if !ok || price != want[r.Name] {
			t.Fatalf("entry %d price %v, want %v", i, price, want[r.Name])
		}
	}
}

func TestSaveLoadResultsWithErrors(t *testing.T) {
	results := runFlakyFarm(t, RunMaster, brokenExecutor{}, 3, 1, Options{Strategy: SerializedLoad})
	path := t.TempDir() + "/err-res.bin"
	if err := SaveResults(path, results); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range back {
		if r.Err == nil {
			t.Fatalf("%s lost its error through persistence", r.Name)
		}
	}
}

func TestLoadResultsRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadResults(dir + "/missing.bin"); err == nil {
		t.Fatal("missing file accepted")
	}
	// A valid nsp file that is not a results list.
	path := dir + "/notlist.bin"
	if err := nsp.Save(path, nsp.Scalar(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResults(path); err == nil {
		t.Fatal("non-list accepted")
	}
}
