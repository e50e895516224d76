// Command riskvet runs the project's static analysis suite: the seven
// analyzers in internal/lint that machine-check the invariants the
// benchmark's verifiability rests on (deterministic randomness, map
// iteration order, the virtual clock, context plumbing, wire struct
// shapes, metric name grammar) and delete what only tests keep alive.
//
// Usage:
//
//	riskvet [packages...]        lint the named module packages (default all)
//	riskvet -list                print the analyzers and what they enforce
//	riskvet -write-wireshape     regenerate wireshape.lock files (refuses
//	                             to bless shape changes without a proto bump)
//
// Exit status is 1 when any diagnostic survives the //lint:allow
// directives, so `make lint` fails the build on a violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"riskbench/internal/lint"
)

func main() {
	var (
		root      = flag.String("root", "", "module root (default: walk up from cwd to go.mod)")
		list      = flag.Bool("list", false, "list analyzers and exit")
		writeLock = flag.Bool("write-wireshape", false, "regenerate wireshape.lock files and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}
	loader, err := lint.NewLoader(dir)
	if err != nil {
		fatal(err)
	}

	if *writeLock {
		if err := writeWireshape(loader); err != nil {
			fatal(err)
		}
		return
	}

	var diags []lint.Diagnostic
	if args := flag.Args(); len(args) > 0 {
		for _, path := range args {
			if !strings.HasPrefix(path, loader.ModulePath) {
				path = loader.ModulePath + "/" + strings.TrimPrefix(path, "./")
			}
			pkg, err := loader.Load(path)
			if err != nil {
				fatal(err)
			}
			diags = append(diags, lint.Run(pkg, lint.All())...)
		}
	} else {
		diags, err = lint.RunAll(loader, lint.All())
		if err != nil {
			fatal(err)
		}
	}
	for _, d := range diags {
		rel := d
		if r, err := filepath.Rel(dir, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			rel.Pos.Filename = r
		}
		fmt.Println(rel)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "riskvet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// writeWireshape regenerates every wireshape.lock in the module.
func writeWireshape(loader *lint.Loader) error {
	paths, err := loader.ModulePackages()
	if err != nil {
		return err
	}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return err
		}
		changed, err := lint.RegenerateLock(pkg)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if changed {
			fmt.Printf("riskvet: rewrote %s/%s\n", path, lint.LockFileName)
		}
	}
	return nil
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("riskvet: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "riskvet:", err)
	os.Exit(2)
}
