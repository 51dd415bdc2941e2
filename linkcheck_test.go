package anondyn_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// internalPrefix starts the import path, and so every linker symbol, of a
// package under internal/.
const internalPrefix = "anondyn/internal/"

// linkExempt holds the packages under internal/ whose functions no binary
// needs to link: they exist for tests.
var linkExempt = map[string]string{
	"check":  "the live invariant checker and ground-truth verifier: a test oracle by design",
	"oracle": "the test oracles that tests of two or more packages share",
}

// linkAllowed names the functions under internal/ that no binary links but
// that stay in product code, each with its reason. An entry is spelled as
// the linker spells the function, without internalPrefix.
var linkAllowed = map[string]string{
	"dynnet.NewFunc":               "library API: anondyn.ScheduleFunc returns it",
	"dynnet.(*FuncSchedule).N":     "library API: the Schedule that anondyn.ScheduleFunc returns",
	"dynnet.(*FuncSchedule).Graph": "library API: the Schedule that anondyn.ScheduleFunc returns",
	"core.(*Recorder).SetObserver": "library API: anondyn.Recorder is core.Recorder",
	"core.(*Recorder).DiamHistory": "library API: anondyn.Recorder is core.Recorder",
	"core.(*Recorder).IDsAtLevel":  "library API: anondyn.Recorder is core.Recorder",
	"core.(*Recorder).BeginRounds": "library API: anondyn.Recorder is core.Recorder",
}

// Floors well below the counts when this test was added (564 function
// declarations outside linkExempt, 785 distinct symbols), so that a broken
// parse or symbol read fails instead of passing with nothing to check.
const (
	minDecls   = 400
	minSymbols = 500
)

// TestEveryInternalFunctionIsLinked keeps test oracles and dead code out of
// the product packages. It builds every binary of the repository (the cmd
// and examples mains and the perfbench module) with inlining off, reads the
// symbols they link, and fails on any function declared in a non-test file
// under internal/ that none of them links, outside linkExempt and
// linkAllowed. An oracle that tests of one package call belongs in that
// package's _test.go files; one that tests of several packages share
// belongs in internal/oracle.
func TestEveryInternalFunctionIsLinked(t *testing.T) {
	bin := t.TempDir()
	goBuild(t, "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	goBuild(t, "-C", "perfbench", "-gcflags=all=-l", "-o", filepath.Join(bin, "perfbench"), ".")

	syms := make(map[string]bool)
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, sym := range internalSymbols(out) {
			syms[sym] = true
		}
	}
	if len(syms) < minSymbols {
		t.Fatalf("read %d distinct %s symbols from %d binaries, want at least %d: the symbol read is broken",
			len(syms), internalPrefix, len(entries), minSymbols)
	}

	decls, err := internalFuncs("internal")
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < minDecls {
		t.Fatalf("parsed %d function declarations under internal/, want at least %d: the parse is broken", len(decls), minDecls)
	}

	linked := linkedNames(syms)
	declared := make(map[string]bool)
	for _, d := range decls {
		declared[d.name] = true
		if linked[internalPrefix+d.name] {
			continue
		}
		if _, ok := linkAllowed[d.name]; ok {
			continue
		}
		t.Errorf("%s: %s is linked into no binary: delete it, or move it into test code (its package's _test.go files, or internal/oracle)", d.pos, d.name)
	}
	for _, name := range slices.Sorted(maps.Keys(linkAllowed)) {
		switch {
		case !declared[name]:
			t.Errorf("linkAllowed names %s, which is not declared under internal/", name)
		case linked[internalPrefix+name]:
			t.Errorf("linkAllowed names %s, which a binary links: drop the entry", name)
		}
	}
}

func goBuild(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"build"}, args...)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}

// internalSymbols returns the names under internalPrefix in the output of
// go tool nm, whose lines read "address type name".
func internalSymbols(nm []byte) []string {
	var syms []string
	sc := bufio.NewScanner(bytes.NewReader(nm))
	for sc.Scan() {
		if i := strings.Index(sc.Text(), " "+internalPrefix); i >= 0 {
			syms = append(syms, sc.Text()[i+1:])
		}
	}
	return syms
}

// linkedNames maps linker symbols to the declarations they link. Type
// arguments in brackets are dropped, so an instance of a generic function
// or method links its declaration. A symbol also links every name it
// extends at a dot, so a closure (F.func1), a go or defer wrapper
// (F.gowrap1) or an init (init.0) links its enclosing function. A
// pointer-receiver symbol (*T).M also links a value method T.M, whose
// wrapper it is.
func linkedNames(syms map[string]bool) map[string]bool {
	linked := make(map[string]bool)
	for sym := range syms {
		name := stripTypeArgs(sym)
		names := []string{name}
		if i := strings.Index(name, ".(*"); i >= 0 {
			if j := strings.IndexByte(name[i:], ')'); j >= 0 {
				names = append(names, name[:i+1]+name[i+3:i+j]+name[i+j+1:])
			}
		}
		for _, name := range names {
			linked[name] = true
			for i := strings.LastIndex(name, "/"); i < len(name); i++ {
				if name[i] == '.' {
					linked[name[:i]] = true
				}
			}
		}
	}
	return linked
}

// stripTypeArgs removes every bracketed group, nested ones included.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcDecl is one function declared in a non-test file under internal/.
type funcDecl struct {
	name string // as the linker spells it, without internalPrefix
	pos  string
}

// internalFuncs parses the non-test Go files under root, outside the
// linkExempt packages and testdata, and returns their function
// declarations.
func internalFuncs(root string) ([]funcDecl, error) {
	fset := token.NewFileSet()
	var decls []funcDecl
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
			if _, ok := linkExempt[rel]; ok || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), root+string(filepath.Separator)))
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				decls = append(decls, funcDecl{name: pkg + "." + linkerName(fd), pos: posOf(fset, fd.Pos())})
			}
		}
		return nil
	})
	return decls, err
}

// linkerName spells a declaration as the linker does: F, T.M for a value
// receiver, (*T).M for a pointer receiver. Type parameters are left out,
// as stripTypeArgs leaves them out of symbols.
func linkerName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star, ptr := typ.(*ast.StarExpr)
	if ptr {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// TestLinkedNamesMatchDeclarations pins how symbols map to declarations in
// TestEveryInternalFunctionIsLinked: each case declares one function in
// package p and lists the symbols a binary links.
func TestLinkedNamesMatchDeclarations(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		syms      []string
		want      bool
	}{
		{"generic function", "func F[T any](x T) T { return x }", []string{"p.F[go.shape.int]"}, true},
		{"generic function, only its dictionary", "func F[T any](x T) T { return x }", []string{"p..dict.F[int]"}, false},
		{"generic method", "type C[K comparable] struct{}\nfunc (c *C[K]) M() {}", []string{"p.(*C[go.shape.string]).M"}, true},
		{"value receiver", "type T struct{}\nfunc (T) M() {}", []string{"p.T.M"}, true},
		{"value receiver through its pointer wrapper", "type T struct{}\nfunc (T) M() {}", []string{"p.(*T).M"}, true},
		{"pointer receiver", "type T struct{}\nfunc (*T) M() {}", []string{"p.(*T).M"}, true},
		{"pointer receiver, not its value", "type T struct{}\nfunc (*T) M() {}", []string{"p.T.M"}, false},
		{"pointer receiver, another method", "type T struct{}\nfunc (*T) M() {}", []string{"p.(*T).MM", "p.(*T).N"}, false},
		{"closure only", "func F() func() int { return func() int { return 1 } }", []string{"p.F.func1"}, true},
		{"method closure only", "type T struct{}\nfunc (t *T) M() { go func() {}() }", []string{"p.(*T).M.func1"}, true},
		{"a longer name", "func F() {}", []string{"p.FG", "p.G.F"}, false},
		{"another package", "func F() {}", []string{"q.F"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "p.go", "package p\n"+tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			var fd *ast.FuncDecl
			for _, d := range file.Decls {
				if f, ok := d.(*ast.FuncDecl); ok {
					fd = f
				}
			}
			syms := make(map[string]bool)
			for _, s := range tc.syms {
				syms[internalPrefix+s] = true
			}
			name := internalPrefix + "p." + linkerName(fd)
			if got := linkedNames(syms)[name]; got != tc.want {
				t.Errorf("%s linked by %v = %v, want %v", name, tc.syms, got, tc.want)
			}
		})
	}
}
