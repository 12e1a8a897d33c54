package impir

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.txt")

const apiPath = "testdata/api.txt"

// TestPublicAPI pins the package's exported surface, one line per
// name, so a diff of testdata/api.txt shows every name a change adds or
// removes. After an intended API change, go test . -run TestPublicAPI
// -update rewrites the file.
func TestPublicAPI(t *testing.T) {
	got, err := apiListing(".")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(apiPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exported API differs from %s; if intended, rerun with -update and review its git diff", apiPath)
	}
}

// apiListing lists the exported names declared in dir's non-test Go
// files, sorted: funcs, methods on exported types, types, exported
// struct fields and interface methods, consts and vars.
func apiListing(dir string) ([]byte, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var lines []string
	src := func(node any) string {
		var b strings.Builder
		if err := printer.Fprint(&b, fset, node); err != nil {
			return "<" + err.Error() + ">"
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() || (decl.Recv != nil && !ast.IsExported(recvType(decl.Recv))) {
					continue
				}
				sig := *decl
				sig.Doc, sig.Body = nil, nil
				if decl.Recv != nil {
					sig.Recv = &ast.FieldList{List: []*ast.Field{{Type: decl.Recv.List[0].Type}}}
				}
				lines = append(lines, src(&sig))
			case *ast.GenDecl:
				lines = append(lines, genDeclAPI(decl, src)...)
			}
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n"), nil
}

// genDeclAPI lists a type, const or var declaration's exported names.
func genDeclAPI(decl *ast.GenDecl, src func(any) string) []string {
	var lines []string
	var typ ast.Expr // a const spec without a type repeats the previous one's
	for _, spec := range decl.Specs {
		switch spec := spec.(type) {
		case *ast.TypeSpec:
			if !spec.Name.IsExported() {
				continue
			}
			head := "type " + spec.Name.Name
			switch t := spec.Type.(type) {
			case *ast.StructType:
				lines = append(lines, head+" struct")
				lines = append(lines, fieldsAPI(head+" struct, ", t.Fields, false, src)...)
			case *ast.InterfaceType:
				lines = append(lines, head+" interface")
				lines = append(lines, fieldsAPI(head+" interface, ", t.Methods, true, src)...)
			default:
				if spec.Assign.IsValid() {
					head += " ="
				}
				lines = append(lines, head+" "+src(spec.Type))
			}
		case *ast.ValueSpec:
			if spec.Type != nil || len(spec.Values) > 0 {
				typ = spec.Type
			}
			for i, name := range spec.Names {
				if !name.IsExported() {
					continue
				}
				line := decl.Tok.String() + " " + name.Name
				switch {
				case typ != nil:
					line += " " + src(typ)
				case i < len(spec.Values):
					line += " = " + src(spec.Values[i])
				}
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// fieldsAPI lists a struct's exported fields or an interface's
// exported methods, and either's embedded types, each after prefix.
func fieldsAPI(prefix string, fields *ast.FieldList, iface bool, src func(any) string) []string {
	var lines []string
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			lines = append(lines, prefix+"embedded "+src(f.Type))
			continue
		}
		typ := " " + src(f.Type)
		if iface {
			typ = strings.TrimPrefix(typ, " func")
		}
		for _, name := range f.Names {
			if name.IsExported() {
				lines = append(lines, prefix+name.Name+typ)
			}
		}
	}
	return lines
}

// recvType returns a method receiver's base type name.
func recvType(recv *ast.FieldList) string {
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
