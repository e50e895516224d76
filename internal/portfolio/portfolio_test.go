package portfolio

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

func TestRealisticComposition(t *testing.T) {
	pf := Realistic()
	if pf.Size() != 7931 {
		t.Fatalf("realistic portfolio has %d claims, want 7931 (paper §4.3)", pf.Size())
	}
	counts := map[string]int{}
	for _, it := range pf.Items {
		class := strings.SplitN(it.Name, "-", 2)[0]
		counts[class]++
	}
	want := map[string]int{
		"vanilla": 1952, "barrier": 1952, "basket": 525,
		"locvol": 1025, "amerpde": 1952, "amermc": 525,
	}
	for class, n := range want {
		if counts[class] != n {
			t.Errorf("class %s: %d claims, want %d", class, counts[class], n)
		}
	}
}

func TestRealisticTotalWorkMatchesTableIII(t *testing.T) {
	pf := Realistic()
	total := pf.TotalCost()
	// The paper's 2-CPU (1-worker) run took 5770 s; the virtual total work
	// must land in that neighbourhood.
	if total < 4500 || total > 7000 {
		t.Fatalf("total virtual work %.0f s, want ≈5770 s", total)
	}
	if m := pf.MaxCost(); m > 30 {
		t.Errorf("max claim cost %.1f s too large for Table III's 512-CPU makespan of ~20 s", m)
	}
}

func TestRealisticCostOrdering(t *testing.T) {
	pf := Realistic()
	classTotal := map[string]float64{}
	classCount := map[string]int{}
	for _, it := range pf.Items {
		class := strings.SplitN(it.Name, "-", 2)[0]
		classTotal[class] += it.Cost
		classCount[class]++
	}
	avg := func(c string) float64 { return classTotal[c] / float64(classCount[c]) }
	// §4.3: vanillas almost instantaneous; American products the longest.
	if avg("vanilla") > 0.01 {
		t.Errorf("vanilla average cost %.4f s not near-instantaneous", avg("vanilla"))
	}
	if avg("amermc") <= avg("locvol") || avg("amermc") <= avg("barrier") {
		t.Errorf("American MC average %.2f not the most expensive (locvol %.2f, barrier %.2f)",
			avg("amermc"), avg("locvol"), avg("barrier"))
	}
}

func TestRealisticProblemsValid(t *testing.T) {
	pf := Realistic()
	for _, it := range pf.Items {
		if err := it.Problem.Validate(); err != nil {
			t.Fatalf("%s: %v", it.Name, err)
		}
		if it.Cost <= 0 || math.IsNaN(it.Cost) {
			t.Fatalf("%s: cost %v", it.Name, it.Cost)
		}
	}
}

func TestRealisticSampleComputesLive(t *testing.T) {
	// One claim per class must actually price when MC sizes are reduced.
	pf := Realistic()
	seen := map[string]bool{}
	for _, it := range pf.Items {
		class := strings.SplitN(it.Name, "-", 2)[0]
		if seen[class] {
			continue
		}
		seen[class] = true
		p := it.Problem.Clone()
		// Shrink numerical effort so the test stays fast.
		if _, ok := p.Params["paths"]; ok {
			p.Set("paths", 2000)
		}
		if _, ok := p.Params["mcsteps"]; ok {
			p.Set("mcsteps", 16)
		}
		if _, ok := p.Params["exdates"]; ok {
			p.Set("exdates", 10)
		}
		if _, ok := p.Params["steps"]; ok && p.Method != premia.MethodTreeCRR {
			p.Set("steps", 60)
		}
		if _, ok := p.Params["nodes"]; ok {
			p.Set("nodes", 120)
		}
		res, err := p.Compute()
		if err != nil {
			t.Fatalf("%s (%s): %v", it.Name, p, err)
		}
		if math.IsNaN(res.Price) || res.Price < 0 {
			t.Fatalf("%s: price %v", it.Name, res.Price)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("found %d classes, want 6", len(seen))
	}
}

func TestToyPortfolio(t *testing.T) {
	pf := Toy(10000)
	if pf.Size() != 10000 {
		t.Fatalf("toy size %d", pf.Size())
	}
	// All closed-form vanillas, all cheap.
	for _, it := range pf.Items[:100] {
		if it.Problem.Method != premia.MethodCFCall {
			t.Fatalf("%s uses %s", it.Name, it.Problem.Method)
		}
		if it.Cost > 0.01 {
			t.Fatalf("%s cost %v not near-free", it.Name, it.Cost)
		}
	}
	// Total ≈ 10000 × 0.2 ms ≈ 2 s of work: the 1-worker run of Table II
	// is dominated by communication, not compute.
	if total := pf.TotalCost(); total < 1 || total > 4 {
		t.Errorf("toy total work %.2f s, want ≈2 s", total)
	}
}

// TestByName checks the one reader of a book's name: each of the four
// builds the book of that name, n sizes toy and mixed only, and any other
// name, "" included, fails with the message that lists the four.
func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, want int
	}{
		{"toy", 37, 37}, {"mixed", 40, 40}, {"regression", 5, Regression().Size()}, {"realistic", 5, 7931},
	} {
		pf, err := ByName(tc.name, tc.n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", tc.name, err)
		}
		if pf.Name != tc.name || pf.Size() != tc.want {
			t.Errorf("ByName(%q, %d) built %d claims of the %q book, want %d", tc.name, tc.n, pf.Size(), pf.Name, tc.want)
		}
	}
	const want = `(have toy, mixed, regression, realistic)`
	for _, name := range []string{"", "nope", "Toy"} {
		pf, err := ByName(name, 10)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("ByName(%q) = %v, %v; want an error naming it and listing %s", name, pf, err, want)
		}
	}
}

func TestRegressionSuite(t *testing.T) {
	pf := Regression()
	if pf.Size() < 150 {
		t.Fatalf("regression suite has only %d tests", pf.Size())
	}
	total := pf.TotalCost()
	// Table I: 2-CPU run took 838 s; the generator targets that order of
	// magnitude.
	if total < 400 || total > 2000 {
		t.Errorf("regression total work %.0f s, want same order as 838 s", total)
	}
	// The makespan floor of Table I (~30 s above 96 CPUs) comes from the
	// longest single test.
	if m := pf.MaxCost(); m < 15 || m > 80 {
		t.Errorf("longest regression test %.1f s, want ≈30 s", m)
	}
}

func TestRegressionCoversEveryMethod(t *testing.T) {
	pf := Regression()
	used := map[string]bool{}
	for _, it := range pf.Items {
		used[it.Problem.Method] = true
	}
	for _, m := range premia.Methods() {
		if !used[m] {
			t.Errorf("method %s not covered by the regression suite", m)
		}
	}
}

func TestRegressionAllComputeLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live regression pricing is slow")
	}
	pf := Regression()
	// Price one variant of each distinct triple for real.
	seen := map[string]bool{}
	for _, it := range pf.Items {
		key := it.Problem.Model + "/" + it.Problem.Option + "/" + it.Problem.Method
		if seen[key] {
			continue
		}
		seen[key] = true
		res, err := it.Problem.Compute()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if math.IsNaN(res.Price) || res.Price < -1e-9 {
			t.Fatalf("%s: price %v", key, res.Price)
		}
	}
}

func TestTasksRoundTrip(t *testing.T) {
	pf := Toy(50)
	tasks, err := pf.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 50 {
		t.Fatalf("%d tasks", len(tasks))
	}
	for i, task := range tasks {
		if task.Name != pf.Items[i].Name || task.Cost != pf.Items[i].Cost {
			t.Fatalf("task %d metadata mismatch", i)
		}
		if len(task.Data) < 50 {
			t.Fatalf("task %d payload only %d bytes", i, len(task.Data))
		}
	}
}

func TestSaveDirAndReload(t *testing.T) {
	pf := Toy(5)
	dir := t.TempDir()
	paths, err := pf.SaveDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("%d paths", len(paths))
	}
	back, err := premia.Load(filepath.Join(dir, pf.Items[0].Name+".bin"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pf.Items[0].Problem.Compute()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if got.Price != want.Price {
		t.Fatal("reloaded problem prices differently")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := Realistic(), Realistic()
	if a.Size() != b.Size() {
		t.Fatal("sizes differ")
	}
	for i := range a.Items {
		if a.Items[i].Cost != b.Items[i].Cost || a.Items[i].Name != b.Items[i].Name {
			t.Fatalf("item %d differs between generations", i)
		}
	}
}

func TestCalibrateCosts(t *testing.T) {
	pf := Toy(50)
	before := make([]float64, len(pf.Items))
	for i, it := range pf.Items {
		before[i] = it.Cost
	}
	if err := pf.CalibrateCosts(0.5); err != nil {
		t.Fatal(err)
	}
	// Positive, finite, and relative jitter preserved.
	ratio := pf.Items[0].Cost / before[0]
	for i, it := range pf.Items {
		if it.Cost <= 0 || math.IsNaN(it.Cost) || math.IsInf(it.Cost, 0) {
			t.Fatalf("item %d cost %v", i, it.Cost)
		}
		r := it.Cost / before[i]
		if math.Abs(r-ratio) > 1e-9*ratio {
			t.Fatalf("item %d scaled by %v, class by %v", i, r, ratio)
		}
	}
}

func TestCalibrateCostsRealisticSample(t *testing.T) {
	if testing.Short() {
		t.Skip("live calibration prices one claim per class")
	}
	// A thin slice of the realistic portfolio: one claim per class.
	full := Realistic()
	seen := map[string]bool{}
	pf := &Portfolio{Name: "slice"}
	for _, it := range full.Items {
		class := strings.SplitN(it.Name, "-", 2)[0]
		if seen[class] {
			continue
		}
		seen[class] = true
		pf.Items = append(pf.Items, it)
	}
	if err := pf.CalibrateCosts(0.01); err != nil {
		t.Fatal(err)
	}
	for _, it := range pf.Items {
		if it.Cost <= 0 {
			t.Fatalf("%s calibrated to %v", it.Name, it.Cost)
		}
	}
}

// TestCalibrateCostsTimesOneCore: a simulated CPU is one core, so the
// claim calibration times must price on one even under a multicore
// process default. premia.kernel.threads reads what the timed run used.
func TestCalibrateCostsTimesOneCore(t *testing.T) {
	premia.SetKernelThreads(2)
	defer premia.SetKernelThreads(0)
	reg := telemetry.New()
	telemetry.SetProcess(reg)
	defer telemetry.SetProcess(nil)
	pf := &Portfolio{Name: "basket"}
	for _, it := range Realistic().Items {
		if strings.HasPrefix(it.Name, "basket-") {
			pf.Items = append(pf.Items, it)
			break
		}
	}
	if err := pf.CalibrateCosts(0.01); err != nil {
		t.Fatal(err)
	}
	if got, ok := reg.Snapshot().Gauges["premia.kernel.threads"]; !ok || got != 1 {
		t.Errorf("calibration timed a Monte Carlo claim on %v kernel goroutines (recorded %v), want 1", got, ok)
	}
}

func TestCalibrateCostsRejectsBadShrink(t *testing.T) {
	pf := Toy(5)
	if err := pf.CalibrateCosts(0); err == nil {
		t.Fatal("shrink 0 accepted")
	}
	if err := pf.CalibrateCosts(1.5); err == nil {
		t.Fatal("shrink > 1 accepted")
	}
}

func TestMixedPortfolio(t *testing.T) {
	pf := Mixed(200)
	if pf.Size() != 200 {
		t.Fatalf("size %d", pf.Size())
	}
	classes := map[string]int{}
	for _, it := range pf.Items {
		if err := it.Problem.Validate(); err != nil {
			t.Fatalf("%s: %v", it.Name, err)
		}
		classes[strings.SplitN(it.Name, "-", 2)[0]]++
	}
	if classes["eq"] != 120 || classes["rate"] != 50 || classes["credit"] != 30 {
		t.Fatalf("class split %v", classes)
	}
	// Every claim prices live.
	for _, it := range pf.Items {
		res, err := it.Problem.Compute()
		if err != nil {
			t.Fatalf("%s: %v", it.Name, err)
		}
		if math.IsNaN(res.Price) || res.Price < 0 {
			t.Fatalf("%s: price %v", it.Name, res.Price)
		}
	}
}

func TestMixedPortfolioFarms(t *testing.T) {
	// The mixed book survives the full serialization + farm path.
	pf := Mixed(60)
	tasks, err := pf.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 60 {
		t.Fatalf("%d tasks", len(tasks))
	}
	// Serialize/rebuild one rate and one credit claim explicitly.
	for _, i := range []int{40, 55} {
		h, err := pf.Items[i].Problem.ToNsp()
		if err != nil {
			t.Fatal(err)
		}
		back, err := premia.FromNsp(h)
		if err != nil {
			t.Fatal(err)
		}
		a, err := pf.Items[i].Problem.Compute()
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Compute()
		if err != nil {
			t.Fatal(err)
		}
		if a.Price != b.Price {
			t.Fatalf("item %d: price changed through nsp round trip", i)
		}
	}
}
