// Command designledger counts, per package of the module, what a
// simplification is meant to remove, and writes the counts to
// DESIGN.json beside go.mod:
//
//   - lines: non-test Go source lines, as wc -l counts them;
//   - exported: exported identifiers — funcs, methods of exported types,
//     types, fields and interface methods of exported types, consts and
//     vars;
//   - goroutines: go statements;
//   - locks: declared sync.Mutex and sync.RWMutex values and fields;
//   - knobs: exported With* option funcs, exported fields of exported
//     *Config and *Options structs, and defined command-line flags.
//
// Packages are grouped by kind: "library" (the root package and
// internal/), "command" (cmd/), "example" (examples/) and "tool" (the
// benchmark and scripts/). The production code is the libraries and
// commands. The ledger gates no budget; CI checks that the committed
// file is current. A change that states a line or concept budget
// quotes it before and after.
//
// Usage, from the module root:
//
//	go run ./scripts/designledger            # rewrite DESIGN.json
//	go run ./scripts/designledger -o -       # print it instead
//	go run ./scripts/designledger -root DIR  # count another checkout
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// pkgRow is one package's row of the ledger.
type pkgRow struct {
	Path       string     `json:"path"`
	Kind       string     `json:"kind"`
	Lines      int        `json:"lines"`
	Exported   int        `json:"exported"`
	Goroutines int        `json:"goroutines"`
	Locks      int        `json:"locks"`
	Knobs      knobCounts `json:"knobs"`
}

// knobCounts counts a package's independently settable values.
type knobCounts struct {
	Options      int `json:"options"`
	ConfigFields int `json:"config_fields"`
	Flags        int `json:"flags"`
}

// kindTotals sums the rows of one kind.
type kindTotals struct {
	Packages   int        `json:"packages"`
	Lines      int        `json:"lines"`
	Exported   int        `json:"exported"`
	Goroutines int        `json:"goroutines"`
	Locks      int        `json:"locks"`
	Knobs      knobCounts `json:"knobs"`
}

func (t *kindTotals) add(p pkgRow) {
	t.Packages++
	t.Lines += p.Lines
	t.Exported += p.Exported
	t.Goroutines += p.Goroutines
	t.Locks += p.Locks
	t.Knobs.Options += p.Knobs.Options
	t.Knobs.ConfigFields += p.Knobs.ConfigFields
	t.Knobs.Flags += p.Knobs.Flags
}

func main() {
	root := flag.String("root", ".", "module root to count")
	out := flag.String("o", "", `output file (default ROOT/DESIGN.json; "-" for standard output)`)
	flag.Parse()
	if err := run(*root, *out); err != nil {
		fmt.Fprintln(os.Stderr, "designledger:", err)
		os.Exit(1)
	}
}

func run(root, out string) error {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return err
	}
	pkgs, err := count(root, module)
	if err != nil {
		return err
	}
	data, err := render(module, pkgs)
	if err != nil {
		return err
	}
	switch out {
	case "-":
		_, err = os.Stdout.Write(data)
		return err
	case "":
		out = filepath.Join(root, "DESIGN.json")
	}
	return os.WriteFile(out, data, 0o644)
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", errors.New(gomod + ": no module line")
}

// count returns one row per directory holding non-test Go files,
// skipping hidden, underscore, testdata and vendor directories as the
// go command does.
func count(root, module string) ([]pkgRow, error) {
	byDir := make(map[string]*pkgRow)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := byDir[rel]
		if pkg == nil {
			pkg = &pkgRow{Path: path.Join(module, rel), Kind: kind(rel)}
			byDir[rel] = pkg
		}
		pkg.Lines += bytes.Count(src, []byte("\n"))
		countFile(pkg, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs := make([]pkgRow, 0, len(byDir))
	for _, p := range byDir {
		pkgs = append(pkgs, *p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func kind(rel string) string {
	switch top, _, _ := strings.Cut(rel, "/"); top {
	case "cmd":
		return "command"
	case "examples":
		return "example"
	case "benchmark", "scripts":
		return "tool"
	}
	return "library"
}

// flagDefiners are the flag package's and FlagSet's flag-defining
// functions.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

func countFile(pkg *pkgRow, f *ast.File) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			if decl.Recv == nil {
				pkg.Exported++
				if strings.HasPrefix(decl.Name.Name, "With") {
					pkg.Knobs.Options++
				}
			} else if ast.IsExported(recvType(decl.Recv)) {
				pkg.Exported++
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						pkg.Exported++
						fields := exportedMembers(spec.Type)
						pkg.Exported += fields
						if st, ok := spec.Type.(*ast.StructType); ok && st != nil &&
							(strings.HasSuffix(spec.Name.Name, "Config") || strings.HasSuffix(spec.Name.Name, "Options")) {
							pkg.Knobs.ConfigFields += fields
						}
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						if n.IsExported() {
							pkg.Exported++
						}
					}
				}
			}
		}
	}

	flagSets := map[string]bool{}
	flagPkg := importName(f, "flag")
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pkg.Goroutines++
		case *ast.Field:
			if isLock(n.Type) {
				pkg.Locks += max(len(n.Names), 1)
			}
			if star, ok := n.Type.(*ast.StarExpr); ok && isSelector(star.X, flagPkg, "FlagSet") {
				for _, name := range n.Names {
					flagSets[name.Name] = true
				}
			}
		case *ast.ValueSpec:
			if isLock(n.Type) {
				pkg.Locks += len(n.Names)
			}
			for i, v := range n.Values {
				if i < len(n.Names) && isCall(v, flagPkg, "NewFlagSet") {
					flagSets[n.Names[i].Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, v := range n.Rhs {
				if id, ok := n.Lhs[i].(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) && isCall(v, flagPkg, "NewFlagSet") {
					flagSets[id.Name] = true
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				break
			}
			if x, ok := sel.X.(*ast.Ident); ok && flagPkg != "" && (x.Name == flagPkg || flagSets[x.Name]) {
				pkg.Knobs.Flags++
			}
		}
		return true
	})
}

// exportedMembers counts the exported fields of a struct type or the
// exported methods of an interface type; embedded types count once.
func exportedMembers(t ast.Expr) int {
	var list *ast.FieldList
	switch t := t.(type) {
	case *ast.StructType:
		list = t.Fields
	case *ast.InterfaceType:
		list = t.Methods
	}
	if list == nil {
		return 0
	}
	n := 0
	for _, field := range list.List {
		if len(field.Names) == 0 {
			if ast.IsExported(typeName(field.Type)) {
				n++
			}
			continue
		}
		for _, name := range field.Names {
			if name.IsExported() {
				n++
			}
		}
	}
	return n
}

func recvType(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	return typeName(recv.List[0].Type)
}

// typeName is the bare name of a possibly pointer, qualified or generic
// type expression.
func typeName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// importName is the name file f refers to the package at importPath by,
// or "" when f does not import it.
func importName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == importPath {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path.Base(importPath)
		}
	}
	return ""
}

// isLock reports a sync.Mutex or sync.RWMutex by value: a pointer
// shares a lock declared elsewhere.
func isLock(t ast.Expr) bool {
	return isSelector(t, "sync", "Mutex") || isSelector(t, "sync", "RWMutex")
}

// isSelector reports whether t is pkgName.name.
func isSelector(t ast.Expr, pkgName, name string) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || pkgName == "" {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkgName && sel.Sel.Name == name
}

func isCall(e ast.Expr, pkgName, name string) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && isSelector(call.Fun, pkgName, name)
}

// render writes one package per line, so a diff of DESIGN.json shows
// each package whose counts moved.
func render(module string, pkgs []pkgRow) ([]byte, error) {
	totals := map[string]*kindTotals{"all": {}, "production": {}}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"schema\": \"impir-design/1\",\n  \"module\": %q,\n  \"packages\": [\n", module)
	for i, p := range pkgs {
		line, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		sep := ","
		if i == len(pkgs)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %s%s\n", line, sep)
		if totals[p.Kind] == nil {
			totals[p.Kind] = &kindTotals{}
		}
		totals[p.Kind].add(p)
		totals["all"].add(p)
		if p.Kind == "library" || p.Kind == "command" {
			totals["production"].add(p)
		}
	}
	b.WriteString("  ],\n  \"totals\": {\n")
	kinds := make([]string, 0, len(totals))
	for k := range totals {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for i, k := range kinds {
		line, err := json.Marshal(totals[k])
		if err != nil {
			return nil, err
		}
		sep := ","
		if i == len(kinds)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %q: %s%s\n", k, line, sep)
	}
	b.WriteString("  }\n}\n")
	return b.Bytes(), nil
}
