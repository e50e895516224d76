package lint_test

import (
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docSources are the documents that describe the tree as it is.
// EXPERIMENTS.md and CHANGES.md are history and benchmark/README.md is
// frozen with the benchmark, so a name they mention may be gone.
var docSources = []string{"README.md", "DESIGN.md"}

var (
	docSpan = regexp.MustCompile("`[^`\n]+`")
	// docIdent is pkg.Ident or pkg.(*Type), then any .Field or .Method
	// selectors. Only exported names count: lowercase ones after a package
	// name are span and metric names (`farm.task`, `serve.http_self_us`).
	docIdent = regexp.MustCompile(`([a-z]\w*)\.(?:\(\*(\w+)\)|([A-Z]\w*))((?:\.\w+)*)`)
	// docTest is a test, benchmark or fuzz target name; `*` stands for any
	// run of name characters (`TestCompat*`, `Test*Allocs`).
	docTest  = regexp.MustCompile(`(?:Test|Benchmark|Fuzz)[\w*]*`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// makeRule is a Makefile rule line; docMake a make invocation in a doc.
	makeRule = regexp.MustCompile(`(?m)^([A-Za-z][\w-]*)\s*:([^=]|$)`)
	docMake  = regexp.MustCompile(`\bmake ([A-Za-z][\w-]*)`)
	// flagDecl is a flag declared in a command's main package, with or
	// without a destination: flag.Int("n", …), flag.Var(params, "p", …).
	flagDecl = regexp.MustCompile(`flag\.\w+\((?:&?\w+,\s*)?"([^"]+)"`)
	docFlag  = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
)

// docCommands are the binaries whose flags the documents may spell out.
var docCommands = []string{"riskserver", "riskbench", "farmworker", "pricer", "riskvet"}

// tree is what the documents may name: packages by package name, test
// names, make targets, and each command's flags.
type tree struct {
	pkgs    map[string]*types.Package
	tests   []string
	targets map[string]bool
	flags   map[string]map[string]bool
}

// staleDocNames returns every backticked name in text that names nothing
// in tr: a pkg.Ident whose package, by package name, is in tr but does
// not declare it (or the field or method selected from it), and a test
// name matching none of tr's tests. Then, in code — backticked or fenced
// — every `make <target>` whose target the Makefile lacks and every
// `-flag` after a command that the command does not declare.
func (tr tree) staleDocNames(text string) []string {
	var stale []string
	for _, span := range docSpan.FindAllString(text, -1) {
		for _, m := range docIdent.FindAllStringSubmatchIndex(span, -1) {
			if continuesName(span, m[0], "./") {
				continue // a path, file or selector, not a package name
			}
			pkg := tr.pkgs[span[m[2]:m[3]]]
			if pkg == nil {
				continue
			}
			typ, ident := m[4:6], m[6:8] // pkg.(*Type) or pkg.Ident
			if typ[0] < 0 {
				typ = ident
			}
			name := span[typ[0]:typ[1]]
			if !resolves(pkg, name, span[m[8]:m[9]]) {
				stale = append(stale, span[m[0]:m[1]])
			}
		}
		for _, m := range docTest.FindAllStringIndex(span, -1) {
			if continuesName(span, m[0], "") {
				continue
			}
			name := span[m[0]:m[1]]
			re := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(name), `\*`, `\w*`) + "$")
			if !slices.ContainsFunc(tr.tests, re.MatchString) {
				stale = append(stale, name)
			}
		}
	}
	for _, run := range codeRuns(text) {
		for _, m := range docMake.FindAllStringSubmatch(run, -1) {
			if !tr.targets[m[1]] {
				stale = append(stale, m[0])
			}
		}
		cmd := ""
		for _, tok := range strings.Fields(run) {
			if tok[0] == '#' {
				break // a shell comment runs to the end of the line
			}
			name := path.Base(strings.Trim(tok, `"'`))
			switch {
			case strings.ContainsRune("|&;<>", rune(tok[0])) || strings.HasPrefix(tok, "2>"):
				cmd = "" // a pipe, a list or a redirection ends the command
			case slices.Contains(docCommands, name):
				cmd = name
			case cmd != "":
				if m := docFlag.FindStringSubmatch(tok); m != nil && !tr.flags[cmd][m[1]] {
					stale = append(stale, cmd+" -"+m[1])
				}
			}
		}
	}
	return stale
}

// codeRuns returns the code of a markdown text a shell would read as one
// line: every backticked span, and every line of a fenced block with its
// backslash continuations joined.
func codeRuns(text string) []string {
	var runs []string
	for _, span := range docSpan.FindAllString(text, -1) {
		runs = append(runs, strings.Trim(span, "`"))
	}
	fenced, line := false, ""
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			continue
		}
		if cont, ok := strings.CutSuffix(l, "\\"); ok {
			line += cont + " "
			continue
		}
		runs = append(runs, line+l)
		line = ""
	}
	return runs
}

// continuesName reports whether s[i:] continues a longer name, or a run
// joined by one of the bytes in also.
func continuesName(s string, i int, also string) bool {
	if i == 0 {
		return false
	}
	c := s[i-1]
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte(also, c) >= 0
}

// resolves reports whether pkg declares name and, through it, each
// selector of chain (".Field.Method").
func resolves(pkg *types.Package, name, chain string) bool {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return false
	}
	var t types.Type
	switch obj.(type) {
	case *types.TypeName, *types.Var:
		t = obj.Type()
	}
	for _, sel := range strings.Split(chain, ".")[1:] {
		if t == nil {
			break
		}
		found, _, _ := types.LookupFieldOrMethod(t, true, pkg, sel)
		if found == nil {
			return false
		}
		t = nil
		if v, ok := found.(*types.Var); ok {
			t = v.Type()
		}
	}
	return true
}

// TestDocsNameRealThings: README.md and DESIGN.md name only what the tree
// declares, so deleting a type, a function, a test, a make target or a
// command's flag fails here until the prose describing it goes too.
func TestDocsNameRealThings(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader := moduleLoader(t)
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	tr := tree{pkgs: map[string]*types.Package{}, targets: map[string]bool{}, flags: map[string]map[string]bool{}}
	for _, path := range paths {
		if path != loader.ModulePath && !strings.HasPrefix(path, loader.ModulePath+"/internal/") {
			continue // commands and examples are package main
		}
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		tr.pkgs[pkg.Types.Name()] = pkg.Types
	}
	err = filepath.WalkDir(loader.ModuleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != loader.ModuleRoot && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
			tr.tests = append(tr.tests, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile(filepath.Join(loader.ModuleRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range makeRule.FindAllStringSubmatch(string(makefile), -1) {
		tr.targets[m[1]] = true
	}
	for _, cmd := range docCommands {
		tr.flags[cmd] = map[string]bool{}
		files, err := filepath.Glob(filepath.Join(loader.ModuleRoot, "cmd", cmd, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("command %s has no sources (%v)", cmd, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDecl.FindAllStringSubmatch(string(src), -1) {
				tr.flags[cmd][m[1]] = true
			}
		}
	}

	cases := []struct {
		name, text string
		stale      []string
	}{
		{"stale function", "`nsp.Serialize` and `nsp.Display`", []string{"nsp.Display"}},
		{"stale method", "`premia.(*Problem).ToNsp`, `premia.(*Problem).MarshalXDR`", []string{"premia.(*Problem).MarshalXDR"}},
		{"stale field", "`risk.NetBackend.Transport`, `risk.NetBackend.Hosts`", []string{"risk.NetBackend.Hosts"}},
		{"stale test", "`TestCodecGolden`, `TestCompat*`, `TestSpawn`", []string{"TestSpawn"}},
		{"not identifiers", "`farm.task` span, `internal/nsp.Mat`, `riskbench.go`, `os.Nope`", nil},
		{"stale target", "`make check`, then\n```sh\nmake lint  # part of make deploy\n```\n", []string{"make deploy"}},
		{"stale flag", "`riskserver -addr :8080 -maxbatch 8 | grep -q ok`, `riskbench -live`/`-nope`, and\n" +
			"```sh\ngo run ./cmd/pricer -model BlackScholes1dim \\\n    -p K=100 -nope 1 >out -x &\ngo run ./cmd/farmworker -connect :7777 -n 5 -workers 2  # not -size\n```\n",
			[]string{"riskserver -maxbatch", "pricer -nope", "farmworker -workers"}},
	}
	for _, doc := range docSources {
		text, err := os.ReadFile(filepath.Join(loader.ModuleRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name, text string
			stale      []string
		}{doc, string(text), nil})
	}
	for _, c := range cases {
		if got := tr.staleDocNames(c.text); !reflect.DeepEqual(got, c.stale) {
			t.Errorf("%s names %q that the tree does not declare, want %q", c.name, got, c.stale)
		}
	}
}
