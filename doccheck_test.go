package anondyn_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEveryExportedIdentifierIsDocumented walks all library source files
// and asserts every exported declaration carries a doc comment — the
// deliverable-(e) contract ("doc comments on every public item"). Command
// and example mains are exempt (they export nothing by design), as are
// test files.
func TestEveryExportedIdentifierIsDocumented(t *testing.T) {
	fset := token.NewFileSet()
	var missing []string

	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "cmd" || name == "examples" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc == nil && !isExemptMethod(dd) {
					missing = append(missing, posOf(fset, dd.Pos())+" func "+dd.Name.Name)
				}
			case *ast.GenDecl:
				missing = append(missing, checkGenDecl(fset, dd)...)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Errorf("undocumented exported identifier: %s", m)
	}
}

// checkGenDecl reports undocumented exported names in a const/var/type
// block. A doc comment on the block covers all its specs; otherwise each
// exported spec needs its own.
func checkGenDecl(fset *token.FileSet, d *ast.GenDecl) []string {
	if d.Doc != nil {
		return nil
	}
	var missing []string
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
				missing = append(missing, posOf(fset, s.Pos())+" type "+s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					missing = append(missing, posOf(fset, s.Pos())+" value "+name.Name)
				}
			}
		}
	}
	return missing
}

// TestEveryCliFlagIsDocumented parses the user-facing commands (cmd/cadn
// and cmd/cadnd) for flag registrations (fs.Int("name", ...) and friends)
// and asserts the README mentions every flag as `-name` — so CLI knobs
// cannot be added without surfacing them in the user-facing docs. The
// -faults/-deadline pair in particular carries a usage contract
// (out-of-model plans require a deadline) that only the README explains,
// and the cadnd coordinator flags carry the cluster-mode topology. In the
// other direction, every backticked `-flag` in the first cell of a README
// table row must be registered by one of the two commands, so a flag
// table cannot outlive a removed flag.
func TestEveryCliFlagIsDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	registered := make(map[string]bool)
	for _, cmd := range []struct {
		path     string
		minFlags int
	}{
		{filepath.Join("cmd", "cadn", "main.go"), 19},
		{filepath.Join("cmd", "cadnd", "main.go"), 12},
	} {
		flags := parseFlagNames(t, cmd.path)
		if len(flags) < cmd.minFlags {
			t.Fatalf("found only %d flags in %s — the parser is broken: %v", len(flags), cmd.path, flags)
		}
		// Both binaries must expose the protocol knob: cadn selects the
		// backend per run, cadnd sets the fleet default for submitted jobs.
		hasProtocol := false
		for _, name := range flags {
			registered[name] = true
			if name == "protocol" {
				hasProtocol = true
			}
			if !strings.Contains(text, "-"+name) {
				t.Errorf("%s flag -%s is not mentioned in README.md", cmd.path, name)
			}
		}
		if !hasProtocol {
			t.Errorf("%s does not register a -protocol flag", cmd.path)
		}
	}
	for i, line := range strings.Split(text, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			continue
		}
		for j, tok := range strings.Split(cells[1], "`") {
			if j%2 == 1 && strings.HasPrefix(tok, "-") && !registered[tok[1:]] {
				t.Errorf("README.md:%d documents %s, which neither cmd/cadn nor cmd/cadnd registers", i+1, tok)
			}
		}
	}
}

// parseFlagNames extracts the registered flag names from one main.go.
func parseFlagNames(t *testing.T, path string) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var flags []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Int", "Int64", "Bool", "String", "Float64", "Duration":
		default:
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err == nil && name != "" {
			flags = append(flags, name)
		}
		return true
	})
	return flags
}

// isExemptMethod exempts interface-compliance boilerplate whose meaning is
// given by the interface: String, Error.
func isExemptMethod(d *ast.FuncDecl) bool {
	if d.Recv == nil {
		return false
	}
	return d.Name.Name == "String" || d.Name.Name == "Error"
}

func posOf(fset *token.FileSet, p token.Pos) string {
	pos := fset.Position(p)
	return pos.Filename + ":" + itoa(pos.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
