package portfolio

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"riskbench/internal/premia"
)

// writePrices is `make prices`: rewrite prices.lock from this tree.
var writePrices = flag.Bool("write-prices", false, "rewrite prices.lock from the current tree")

const priceLockFile = "prices.lock"

// lockTarget is the build target the lock's bits belong to. The compiler
// fuses x*y+z into an FMA on some targets (arm64, ppc64le, s390x, and
// amd64 from GOAMD64=v3), so the same source legitimately prices other
// bits elsewhere.
func lockTarget() string {
	target := runtime.GOARCH
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GO"+strings.ToUpper(runtime.GOARCH) {
				target += " " + s.Value
			}
		}
	}
	return target
}

// priceLock prices Table I's suite serially and renders one line per
// problem: its name, then the bits of Price, Delta and PriceCI, or the
// pricing error. A sweep section follows (lockSweeps).
func priceLock() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# math.Float64bits of Price, Delta and PriceCI for portfolio.Regression(), priced serially, then for lockSweeps' scenario cells.\n")
	fmt.Fprintf(&b, "# A change that moves a price rewrites this file with `make prices` and names the methods that moved.\n")
	fmt.Fprintf(&b, "go %s\ntarget %s\n", runtime.Version(), lockTarget())
	for _, it := range Regression().Items {
		res, err := it.Problem.Compute()
		if err != nil {
			fmt.Fprintf(&b, "%s %s error: %v\n", it.Name, it.Problem.Method, err)
			continue
		}
		lockLine(&b, it.Name+" "+it.Problem.Method, res)
	}
	lockSweeps(&b)
	return b.Bytes()
}

// lockLine renders one priced line: its label, then the bits of Price,
// Delta and PriceCI.
func lockLine(b *bytes.Buffer, label string, res premia.Result) {
	fmt.Fprintf(b, "%s %016x %016x %016x\n", label,
		math.Float64bits(res.Price), math.Float64bits(res.Delta), math.Float64bits(res.PriceCI))
}

// lockSweeps renders the path a full revaluation prices by: the first
// claim of each product class in the var_real sample (every 244th claim
// of the realistic book at effort 1e-3), priced serially as one
// premia.Sweep at its base and under five scenario cells — spot ±10 %,
// volatility ×0.8 and ×1.25, rate +1 pt — one line per cell.
func lockSweeps(b *bytes.Buffer) {
	book := Realistic()
	if err := book.ScaleEffort(1e-3); err != nil {
		panic(err)
	}
	seen := map[string]bool{}
	for i := 0; i < len(book.Items); i += 244 {
		it := book.Items[i]
		class, _, _ := strings.Cut(it.Name, "-")
		if seen[class] {
			continue
		}
		seen[class] = true
		p := it.Problem
		vol, err := premia.VolParam(p.Model)
		if err != nil {
			panic(err)
		}
		cells := [][]premia.Override{
			nil,
			{{Param: "S0", Value: 0.9 * p.Params["S0"]}},
			{{Param: "S0", Value: 1.1 * p.Params["S0"]}},
			{{Param: vol, Value: 0.8 * p.Params[vol]}},
			{{Param: vol, Value: 1.25 * p.Params[vol]}},
			{{Param: "r", Value: p.Params["r"] + 0.01}},
		}
		results, errs := (&premia.Sweep{Base: p, Cells: cells}).Compute()
		for k := range cells {
			label := fmt.Sprintf("sweep %s %s cell %d", it.Name, p.Method, k)
			if errs != nil && errs[k] != nil {
				fmt.Fprintf(b, "%s error: %v\n", label, errs[k])
				continue
			}
			lockLine(b, label, results[k])
		}
	}
}

// TestPriceLock pins every price of the regression suite to its bits, so
// a change that moves one — a reordered sum, a new sampler — is a diff
// to review, not a tolerance that quietly still passes.
func TestPriceLock(t *testing.T) {
	if *writePrices {
		if err := os.WriteFile(priceLockFile, priceLock(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(priceLockFile)
	if err != nil {
		t.Fatal(err)
	}
	if target := lockHeader(want, "target"); target != lockTarget() {
		t.Skipf("%s records target %q; this build is %q", priceLockFile, target, lockTarget())
	}
	got := priceLock()
	// The toolchain line is a record, not a price: a Go release that
	// moves no bit passes.
	wantLines, gotLines := pricedLines(want), pricedLines(got)
	moved := 0
	byMethod := map[string]int{}
	for i := range max(len(wantLines), len(gotLines)) {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			if moved++; moved <= 10 {
				t.Errorf("%s line %d:\n  lock: %s\n  tree: %s", priceLockFile, i+1, w, g)
			}
			byMethod[lockMethod(w, g)]++
		}
	}
	if moved > 0 {
		var per []string
		for _, m := range slices.Sorted(maps.Keys(byMethod)) {
			per = append(per, fmt.Sprintf("%s %d", m, byMethod[m]))
		}
		t.Errorf("%d line(s) of %s (written by %s) differ from this tree's prices under %s, by method: %s; if the move is deliberate, run `make prices` and name the methods that moved",
			moved, priceLockFile, lockHeader(want, "go"), runtime.Version(), strings.Join(per, ", "))
	}
}

// lockMethod names the method of a lock line that moved, read from the
// tree's line, or from the lock's when the tree has none: the second
// field of a regression line ("regr-00228 MC_LocalVol …"), the third of a
// sweep line ("sweep locvol-04636 MC_LocalVol cell 0 …"), or "header"
// for the other lines.
func lockMethod(lock, tree string) string {
	line := tree
	if line == "" {
		line = lock
	}
	f := strings.Fields(line)
	switch {
	case len(f) > 2 && f[0] == "sweep":
		return f[2]
	case len(f) > 1 && strings.HasPrefix(f[0], "regr-"):
		return f[1]
	}
	return "header"
}

// pricedLines splits a lock into lines, the toolchain line blanked.
func pricedLines(lock []byte) []string {
	lines := strings.Split(string(lock), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "go ") {
			lines[i] = ""
		}
	}
	return lines
}

// lockHeader returns the value of the lock's header line "key value".
func lockHeader(lock []byte, key string) string {
	sc := bufio.NewScanner(bytes.NewReader(lock))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key+" "); ok {
			return v
		}
	}
	return ""
}
