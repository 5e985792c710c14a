package roadskyline

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestAPISurface holds the system's surface to testdata/api.golden: the root
// package's exported declarations with their signatures (EngineConfig,
// PoolConfig and Query with their fields), the fields of core.Options and
// core.EnvConfig, and every command's flags with their defaults, all read
// from the source with go/parser and go/doc. A new export, field or flag, or
// a changed default, shows as a diff against the golden file; after an
// intended change rewrite it with go test -run TestAPISurface -update . and
// review the diff.
func TestAPISurface(t *testing.T) {
	var b strings.Builder
	b.WriteString("# The public surface, generated by TestAPISurface: rewrite with\n" +
		"# go test -run TestAPISurface -update . and review the diff.\n")

	fset := token.NewFileSet()
	root := parseDir(t, fset, ".")
	pkg, err := doc.NewFromFiles(fset, root, "roadskyline")
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("\n## package roadskyline\n")
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				vs := *spec.(*ast.ValueSpec)
				vs.Doc, vs.Comment = nil, nil
				fmt.Fprintf(&b, "%s %s\n", v.Decl.Tok, render(fset, &vs))
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			b.WriteString(render(fset, &ast.FuncDecl{Recv: f.Decl.Recv, Name: f.Decl.Name, Type: f.Decl.Type}) + "\n")
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		spec := *typ.Decl.Specs[0].(*ast.TypeSpec)
		if st, ok := spec.Type.(*ast.StructType); ok {
			fmt.Fprintf(&b, "type %s struct\n", spec.Name.Name)
			writeFields(&b, fset, "\t", st.Fields.List)
		} else {
			spec.Doc, spec.Comment = nil, nil
			b.WriteString("type " + render(fset, &spec) + "\n")
		}
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}

	b.WriteString("\n## internal configuration fields\n")
	core := parseDir(t, fset, filepath.Join("internal", "core"))
	for _, name := range []string{"EnvConfig", "Options"} {
		fields := structFields(core, name)
		if fields == nil {
			t.Fatalf("no struct type core.%s", name)
		}
		writeFields(&b, fset, "core."+name+".", fields)
	}

	b.WriteString("\n## command flags\n")
	cmds, err := filepath.Glob(filepath.Join("cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range cmds {
		var flags []string
		for _, f := range parseDir(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if flag, ok := flagDecl(fset, n); ok {
					flags = append(flags, flag)
				}
				return true
			})
		}
		sort.Strings(flags)
		for _, flag := range flags {
			fmt.Fprintf(&b, "%s %s\n", filepath.ToSlash(dir), flag)
		}
	}

	got := b.String()
	path := filepath.Join("testdata", "api.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the surface differs from %s (rewrite with -update once the change is intended):\n%s",
			path, lineDiff(string(want), got))
	}
}

// parseDir parses the non-test Go files of dir that the current platform
// builds, without comments: a reworded doc comment is not a surface change.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// render prints a node as gofmt lays it out.
func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	if err := (&printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}).Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	return buf.String()
}

// writeFields writes one line per exported field, prefix then name and type;
// an embedded field is its type alone.
func writeFields(b *strings.Builder, fset *token.FileSet, prefix string, fields []*ast.Field) {
	for _, f := range fields {
		typ := render(fset, f.Type)
		if len(f.Names) == 0 {
			fmt.Fprintf(b, "%s%s\n", prefix, typ)
		}
		for _, n := range f.Names {
			if n.IsExported() {
				fmt.Fprintf(b, "%s%s %s\n", prefix, n.Name, typ)
			}
		}
	}
}

// structFields returns the fields of the struct type named name, or nil.
func structFields(files []*ast.File, name string) []*ast.Field {
	for _, f := range files {
		if obj := f.Scope.Lookup(name); obj != nil {
			if spec, ok := obj.Decl.(*ast.TypeSpec); ok {
				if st, ok := spec.Type.(*ast.StructType); ok {
					return st.Fields.List
				}
			}
		}
	}
	return nil
}

// flagDecl recognizes a flag package definition, flag.Kind("name", default,
// usage) or flag.KindVar(&v, "name", default, usage) or flag.Var(&v, "name",
// usage), and renders it as -name Kind = default.
func flagDecl(fset *token.FileSet, n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
		return "", false
	}
	kind, args := sel.Sel.Name, call.Args
	if strings.HasSuffix(kind, "Var") && len(args) > 0 {
		kind, args = strings.TrimSuffix(kind, "Var"), args[1:]
	}
	if len(args) < 2 {
		return "", false
	}
	lit, ok := args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	switch kind {
	case "", "Func", "BoolFunc": // flag.Var and the function flags: no default
		return "-" + name + " " + sel.Sel.Name, true
	case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Text":
		return fmt.Sprintf("-%s %s = %s", name, kind, render(fset, args[1])), true
	}
	return "", false
}

// lineDiff lists the lines only want has (-) and only got has (+), in order.
func lineDiff(want, got string) string {
	in := func(lines []string) map[string]int {
		m := map[string]int{}
		for _, l := range lines {
			m[l]++
		}
		return m
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	wm, gm := in(wl), in(gl)
	var b strings.Builder
	for _, l := range wl {
		if gm[l] > 0 {
			gm[l]--
			continue
		}
		b.WriteString("-" + l + "\n")
	}
	gm = in(gl)
	for _, l := range gl {
		if wm[l] > 0 {
			wm[l]--
			continue
		}
		b.WriteString("+" + l + "\n")
	}
	return b.String()
}
