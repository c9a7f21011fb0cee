package vizcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the exported declarations that may stand without a
// non-test caller, one reason a line. An entry is a full name as
// exportedWithoutCaller spells it, or an import path that covers every name
// in its package. An entry that matches no flagged name fails the check, so
// the list cannot outlive what it excuses.
var callerAllowlist = map[string]string{
	"repro/internal/faultio.NewFaultFS":           "test seam: faultio's own tests use it, so it cannot move to testutil without an import cycle",
	"repro/internal/faultio.(*FaultFS).SetConfig": "test seam: faultio's own tests use it, so it cannot move to testutil without an import cycle",
	"repro/internal/faultio.(*FaultFS).Stats":     "test seam: faultio's own tests use it, so it cannot move to testutil without an import cycle",
	"repro/internal/netchaos":                     "test infrastructure by design: the network fault proxy only tests drive (ROADMAP item 13)",
	"repro/internal/testutil":                     "test infrastructure by design: the fixtures other packages' tests share (ROADMAP item 13)",
}

// TestEveryExportedNameHasACaller fails on an exported function, method, type
// or package-level variable outside bench/, cmd/ and examples/ that no
// non-test Go file of the module references, unless callerAllowlist names it.
// Such names were twice found by hand in review before this check existed.
func TestEveryExportedNameHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	flagged, err := exportedWithoutCaller(".")
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale := applyAllowlist(flagged, callerAllowlist)
	for _, name := range unlisted {
		t.Errorf("%s: exported, and no non-test code of the module uses it: unexport it, move it to a test file or internal/testutil, or delete it", name)
	}
	for _, entry := range stale {
		t.Errorf("allowlist entry %q matches no flagged name: delete it", entry)
	}
	for entry, reason := range callerAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %q gives no reason", entry)
		}
	}
}

// TestExportedCallerCheck runs the check over the fixture module under
// testdata/exportcheck, whose names each plant one case.
func TestExportedCallerCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list over a fixture module")
	}
	flagged, err := exportedWithoutCaller(filepath.Join("testdata", "exportcheck"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fixture/lib.(*Box).Uncalled",
		"fixture/lib.OnlyOwnTests",
		"fixture/lib.Uncalled",
		"fixture/lib.UncalledVar",
	}
	if !slices.Equal(flagged, want) {
		t.Fatalf("flagged %q, want %q", flagged, want)
	}

	allow := map[string]string{
		"fixture/lib.Uncalled":     "planted",
		"fixture/lib.OnlyOwnTests": "planted",
		"fixture/lib":              "covers the rest of the package",
		"fixture/lib.Gone":         "matches nothing",
	}
	unlisted, stale := applyAllowlist(flagged, allow)
	if len(unlisted) != 0 {
		t.Errorf("unlisted %q, want none", unlisted)
	}
	if !slices.Equal(stale, []string{"fixture/lib.Gone"}) {
		t.Errorf("stale %q, want the entry that matches nothing", stale)
	}
}

// applyAllowlist splits flagged names into those no entry covers and the
// entries that cover no flagged name.
func applyAllowlist(flagged []string, allow map[string]string) (unlisted, stale []string) {
	hits := make(map[string]bool)
	for _, name := range flagged {
		slash := strings.LastIndex(name, "/")
		pkg := name[:slash+1+strings.Index(name[slash+1:], ".")]
		if _, ok := allow[name]; ok {
			hits[name] = true
		} else if _, ok := allow[pkg]; ok {
			hits[pkg] = true
		} else {
			unlisted = append(unlisted, name)
		}
	}
	for entry := range allow {
		if !hits[entry] {
			stale = append(stale, entry)
		}
	}
	sort.Strings(stale)
	return unlisted, stale
}

// listedPackage is the part of `go list -json` the check reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct{ Dir string }
}

// exportedWithoutCaller type-checks the non-test files of every package of
// the module rooted at dir and returns, sorted, each exported function,
// method, type and package-level variable declared outside bench/, cmd/ and
// examples/ that no non-test file of the module references. A method is not
// counted when its type satisfies an interface, declared in the module or in
// a standard package, that names the method.
func exportedWithoutCaller(dir string) ([]string, error) {
	cmd := exec.Command("go", "list", "-json", "-deps", "-export", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})

	// go list -deps prints a package after its dependencies, so each module
	// package's imports are checked before it is.
	checked := make(map[string]*types.Package)
	var ifaces []*types.Interface
	uses := make(map[types.Object]bool)
	var own []*types.Package
	for _, p := range pkgs {
		if p.Standard {
			if !strings.Contains(p.ImportPath, "internal") && !strings.HasPrefix(p.ImportPath, "vendor/") {
				tp, err := std.Import(p.ImportPath)
				if err != nil {
					return nil, err
				}
				ifaces = appendNamedInterfaces(ifaces, tp)
			}
			continue
		}
		if p.Module == nil {
			return nil, fmt.Errorf("%s is neither standard nor in the module", p.ImportPath)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped := p.ImportMap[path]; mapped != "" {
				path = mapped
			}
			if tp := checked[path]; tp != nil {
				return tp, nil
			}
			return std.Import(path)
		})}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tp
		for _, obj := range info.Uses {
			uses[origin(obj)] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		ifaces = appendNamedInterfaces(ifaces, tp)
		rel, err := filepath.Rel(p.Module.Dir, p.Dir)
		if err != nil {
			return nil, err
		}
		root := strings.Split(filepath.ToSlash(rel), "/")[0]
		if root != "bench" && root != "cmd" && root != "examples" {
			own = append(own, tp)
		}
	}
	ifaces = append(ifaces, errorsInterfaces()...)

	var flagged []string
	for _, pkg := range own {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch obj.(type) {
			case *types.Func, *types.TypeName, *types.Var:
			default:
				continue
			}
			if obj.Exported() && !uses[obj] {
				flagged = append(flagged, pkg.Path()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || uses[m] || satisfiesInterface(named, m.Name(), ifaces) {
					continue
				}
				recv := named.Obj().Name()
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + recv + ")"
				}
				flagged = append(flagged, pkg.Path()+"."+recv+"."+m.Name())
			}
		}
	}
	sort.Strings(flagged)
	return flagged, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a use of an instantiated generic function, method or field to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func appendNamedInterfaces(ifaces []*types.Interface, pkg *types.Package) []*types.Interface {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	return ifaces
}

// errorsInterfaces returns error and the anonymous interfaces the errors
// package asserts an error to, which appendNamedInterfaces cannot see.
func errorsInterfaces() []*types.Interface {
	const src = `package p
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	ifaces := appendNamedInterfaces(nil, pkg)
	return append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

// satisfiesInterface reports whether named or a pointer to it implements an
// interface in ifaces that has a method called method.
func satisfiesInterface(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
