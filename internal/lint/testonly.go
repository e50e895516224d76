package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Testonly deletes what only tests keep alive. Code under internal/ has
// no importer outside this module, so a declaration no production file
// reaches is dead weight that its tests hold up: the tests pass, the
// benchmark never runs it, and every reader pays for it. The same goes
// for a struct field only tests set — a knob production never turns is a
// branch that production never takes.
//
// The rule, over the non-test files of the whole module (internal/,
// cmd/, examples/, benchmark/ and the root façade):
//
//   - a package-level declaration or method under internal/, exported or
//     not, must be referenced outside its own declaration. A method also
//     counts as used when its receiver implements an interface that
//     declares it: one of the module's, one of its imports' (heap.Interface
//     behind heap.Push, fmt.Stringer), or error;
//   - an exported field of a struct declared under internal/ must be
//     written somewhere: a keyed or unkeyed composite literal, an
//     assignment, an increment or &x.F. A field with a struct tag is
//     written by its decoder.
//
// A test seam that stays states why with //lint:allow testonly <reason>.
var Testonly = &Analyzer{
	Name:  "testonly",
	Doc:   "internal/ declarations and fields must be used by production code, not only by tests",
	Match: func(path string) bool { return strings.Contains(path+"/", "/internal/") },
	Run:   runTestonly,
}

// useIndex is what the module's non-test files use: the objects they
// reference, the fields they write and the interfaces they can see.
type useIndex struct {
	used    map[types.Object]bool
	written map[*types.Var]bool
	ifaces  []*types.Interface
}

// uses builds the loader's use index on first call and caches it.
func (l *Loader) uses() (*useIndex, error) {
	if l.index != nil {
		return l.index, nil
	}
	paths, err := l.ModulePackages()
	if err != nil {
		return nil, err
	}
	ix := &useIndex{used: map[types.Object]bool{}, written: map[*types.Var]bool{}}
	seen := map[*types.Package]bool{}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		ix.addPackage(pkg)
		ix.addInterfaces(pkg.Types, seen)
	}
	ix.ifaces = append(ix.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	l.index = ix
	return ix, nil
}

// addPackage records pkg's references and field writes. A reference
// from inside the declaration of the object it names — a recursive call,
// a method's own body — does not keep that object alive; a const, var or
// type group is judged spec by spec, so B = A + 1 keeps A alive.
func (ix *useIndex) addPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			spans := []ast.Node{decl}
			if g, ok := decl.(*ast.GenDecl); ok {
				spans = spans[:0]
				for _, s := range g.Specs {
					spans = append(spans, s)
				}
			}
			for _, span := range spans {
				ast.Inspect(span, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.Ident:
						obj := pkg.Info.Uses[x]
						switch o := obj.(type) { // an instance counts as its generic declaration
						case *types.Func:
							obj = o.Origin()
						case *types.Var:
							obj = o.Origin()
						}
						if obj != nil && (obj.Pos() < span.Pos() || obj.Pos() >= span.End() || obj.Pkg() != pkg.Types) {
							ix.used[obj] = true
						}
					case *ast.InterfaceType:
						if it, ok := exprType(pkg.Info, x).(*types.Interface); ok && it.NumMethods() > 0 {
							ix.ifaces = append(ix.ifaces, it)
						}
					case *ast.CompositeLit:
						ix.addLiteral(pkg.Info, x)
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							ix.addWrite(pkg.Info, lhs)
						}
					case *ast.IncDecStmt:
						ix.addWrite(pkg.Info, x.X)
					case *ast.RangeStmt:
						ix.addWrite(pkg.Info, x.Key)
						ix.addWrite(pkg.Info, x.Value)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							ix.addWrite(pkg.Info, x.X)
						}
					}
					return true
				})
			}
		}
	}
}

// addLiteral records the fields a struct literal sets: the keyed ones,
// or every field of an unkeyed literal.
func (ix *useIndex) addLiteral(info *types.Info, lit *ast.CompositeLit) {
	st, ok := info.TypeOf(lit).Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, e := range lit.Elts {
		f := st.Field(i) // a literal never lists more elements than fields
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			f, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
		}
		if f != nil {
			ix.written[f.Origin()] = true
		}
	}
}

// addWrite records every field selected on the way down an assigned (or
// address-taken) expression: x.A.B = v writes B and, through it, A.
func (ix *useIndex) addWrite(info *types.Info, e ast.Expr) {
	for e != nil {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				ix.written[sel.Obj().(*types.Var).Origin()] = true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// addInterfaces collects every named interface declared in pkg and,
// once each, in the packages it imports, down to the standard library.
func (ix *useIndex) addInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ix.ifaces = append(ix.ifaces, it)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		ix.addInterfaces(imp, seen)
	}
}

// satisfies reports whether m, a method of a named type, is one of the
// methods of an interface that its receiver type implements.
func (ix *useIndex) satisfies(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	// errors.Unwrap, Is and As find these by asserting to interfaces
	// they spell inline, which no package scope declares.
	if errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface); m.Name() == "Unwrap" || m.Name() == "Is" || m.Name() == "As" {
		if types.Implements(recv, errIface) || types.Implements(ptr, errIface) {
			return true
		}
	}
	for _, it := range ix.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
			continue
		}
		if types.Implements(recv, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

func runTestonly(pass *Pass) {
	ix, err := pass.loader.uses()
	if err != nil {
		pass.Reportf(pass.Files[0].Pos(), "testonly: %v", err)
		return
	}
	const fix = "delete it, or keep it with //lint:allow testonly <reason>"
	scope := pass.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !ix.used[obj] {
			pass.Reportf(obj.Pos(), "%s is used only by tests, if at all: %s", name, fix)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := range named.NumMethods() {
			if m := named.Method(i); !ix.used[m] && !ix.satisfies(m) {
				pass.Reportf(m.Pos(), "method %s is used only by tests, if at all: %s", m.Name(), fix)
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() && st.Tag(i) == "" && !ix.written[f] {
					pass.Reportf(f.Pos(), "field %s is set only by tests, if at all: %s", f.Name(), fix)
				}
			}
		}
	}
}
