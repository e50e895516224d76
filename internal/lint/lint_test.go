package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"riskbench/internal/lint"
)

// loadModule builds the one loader every test shares: the source importer
// behind it type-checks the standard library from source, which is most of
// this package's run time, and a loader caches what it has checked. The
// tests run one after another, so sharing it needs no lock.
var loadModule = sync.OnceValues(func() (*lint.Loader, error) {
	return lint.NewLoader(filepath.Join("..", ".."))
})

func moduleLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loader, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

// golden runs one analyzer over a testdata package and matches its
// diagnostics against the package's want comments (see expectWants).
// //lint:allow directives are applied first, so an exemption that fails
// to suppress shows up as an unexpected diagnostic.
func golden(t *testing.T, loader *lint.Loader, analyzer *lint.Analyzer, dir string) {
	t.Helper()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir), "fixture/"+dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	unscoped := *analyzer
	unscoped.Match = nil // fixtures live outside the production package scope
	expectWants(t, []*lint.Package{pkg}, lint.Run(pkg, []*lint.Analyzer{&unscoped}))
}

// expectWants matches diags against the `// want `regexp“ comments of
// pkgs' files: every want must be satisfied by a diagnostic on its line,
// and every diagnostic must be expected. A want may end another comment,
// so a directive can carry the expectation of its own diagnostic.
func expectWants(t *testing.T, pkgs []*lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	wants := map[string][]*regexp.Regexp{} // "file:line" -> patterns
	matched := map[string]int{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					i := strings.Index(c.Text, "// want `")
					if i < 0 {
						continue
					}
					text, ok := strings.CutSuffix(c.Text[i+len("// want `"):], "`")
					if !ok {
						t.Fatalf("%s: unterminated want comment %q", pkg.Fset.Position(c.Pos()), c.Text)
					}
					re, err := regexp.Compile(text)
					if err != nil {
						t.Fatalf("%s: bad want pattern: %v", pkg.Fset.Position(c.Pos()), err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := lineKey(pos.Filename, pos.Line)
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	for _, d := range diags {
		key := lineKey(d.Pos.Filename, d.Pos.Line)
		ok := false
		for _, re := range wants[key] {
			if re.MatchString(d.Message) {
				matched[key]++
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range wants {
		if matched[key] < len(res) {
			t.Errorf("%s: expected %d diagnostic(s), matched %d", key, len(res), matched[key])
		}
	}
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

func TestAnalyzersGolden(t *testing.T) {
	loader := moduleLoader(t)
	cases := []struct {
		analyzer *lint.Analyzer
		dirs     []string
	}{
		{lint.Detrand, []string{"detrand"}},
		{lint.Maporder, []string{"maporder"}},
		{lint.Wallclock, []string{"wallclock"}},
		{lint.Ctxflow, []string{"ctxflow"}},
		{lint.Wireshape, []string{"wireshape", "wireshape_stale"}},
		{lint.Metricnames, []string{"metricnames"}},
	}
	for _, c := range cases {
		for _, dir := range c.dirs {
			t.Run(c.analyzer.Name+"/"+dir, func(t *testing.T) {
				golden(t, loader, c.analyzer, dir)
			})
		}
	}
}

// TestTestonlyGolden runs testonly over a fixture module of its own: the
// rule reads a whole module's production uses, so its cases need a
// package under internal/, a test file whose uses do not count, and a
// command outside internal/ whose uses do.
func TestTestonlyGolden(t *testing.T) {
	loader, err := lint.NewLoader(filepath.Join("testdata", "src", "testonly"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAll(loader, []*lint.Analyzer{lint.Testonly})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*lint.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	expectWants(t, pkgs, diags)
}

// TestRepoClean is the self-hosting gate: the production tree must
// lint clean, including its //lint:allow annotations being live. This
// is what makes "deleting a violation fix breaks the build" true in CI
// even before make lint runs.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader := moduleLoader(t)
	diags, err := lint.RunAll(loader, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestNoDeprecatedInternal keeps shims from coming back: packages under
// internal/ have no importers outside this module, so a declaration
// marked "Deprecated:" there has no transition to wait for — its last
// caller can be moved in the same change, and the declaration deleted.
func TestNoDeprecatedInternal(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader := moduleLoader(t)
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if !strings.HasPrefix(path, loader.ModulePath+"/internal/") {
			continue
		}
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range pkg.Files {
			for _, group := range f.Comments {
				for _, line := range strings.Split(group.Text(), "\n") {
					if strings.HasPrefix(line, "Deprecated:") {
						t.Errorf("%s: deprecated declaration in an internal package: delete it and move its callers", pkg.Fset.Position(group.Pos()))
					}
				}
			}
		}
	}
}

// TestOnePricingRound keeps the risk engine's fork from coming back:
// Revalue and PriceBatch reach the farm through one function, so the
// non-test sources of internal/risk call the backend exactly once.
func TestOnePricingRound(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "risk", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		calls += strings.Count(string(src), "backend().Run(")
	}
	if calls != 1 {
		t.Errorf("internal/risk calls backend().Run( %d times, want once (in priceRound)", calls)
	}
}

// TestOneFarmDriver keeps the farm's second master loop from coming back:
// a Session's callers drive the dispatcher, so the non-test sources of
// internal/farm receive results in exactly one place, and the session and
// the dispatcher start no goroutine of their own.
func TestOneFarmDriver(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "farm", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	calls := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		driver := filepath.Base(file) == "session.go" || filepath.Base(file) == "dispatch.go"
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "recvResults" {
					calls++
				}
			case *ast.GoStmt:
				if driver {
					t.Errorf("%s: a go statement in the farm's driver", fset.Position(x.Pos()))
				}
			}
			return true
		})
	}
	if calls != 1 {
		t.Errorf("internal/farm calls recvResults( %d times, want once (in Session.receive)", calls)
	}
}

// TestDirectiveHygiene proves the checked-exemption rules: a stale
// allow, an unknown analyzer name and a reasonless directive are all
// diagnostics themselves.
func TestDirectiveHygiene(t *testing.T) {
	loader := moduleLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "directives"), "fixture/directives")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(pkg, lint.All())
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	for _, want := range []string{
		"suppresses nothing here",
		"unknown analyzer",
		"needs a reason",
	} {
		found := false
		for _, msg := range got {
			if strings.Contains(msg, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in %v", want, got)
		}
	}
	if len(diags) != 3 {
		t.Errorf("want exactly 3 directive diagnostics, got %d: %v", len(diags), got)
	}
}
