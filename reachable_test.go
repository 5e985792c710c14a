package roadskyline

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// noInline keeps every function of this module out of its callers, so a
// function a binary calls has its own symbol; the standard library keeps its
// cached build.
const noInline = "-gcflags=roadskyline/...=-l"

// reachableReasons are the reasons testdata/reachable.txt may give for a
// function that no binary links.
var reachableReasons = map[string]bool{
	"test support":     true, // internal/testnet and the like: tests are its users
	"public API":       true, // the root package's library surface
	"interface method": true, // completes an interface the binaries use
}

// funcDecl is a function or method declared in a non-test file of a library
// package, keyed as "<dir>.<Func>" or "<dir>.<Type>.<Method>", where dir is
// the package's directory in the module ("roadskyline" for the root).
type funcDecl struct {
	key, pos string
	lines    int
}

// TestReachable holds the library to what the system runs. It builds the
// commands (./cmd/...) and the benchmark harness without inlining this
// module's functions, reads their symbol tables with go tool nm, and fails on
// every function or method declared in a non-test file outside cmd/ and
// benchmark/ that no binary links, unless testdata/reachable.txt names it
// with a reason: code nothing runs is deleted, and a test helper moves into a
// _test.go file or internal/testnet. An entry for a function that is linked,
// or no longer declared, fails too. The functions only the harness links are
// logged: they go when the harness stops reaching into internal packages.
func TestReachable(t *testing.T) {
	goBin := goCommand(t, "builds the commands and the benchmark harness")
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	run := func(args ...string) []byte {
		t.Helper()
		var out, errOut bytes.Buffer
		cmd := exec.Command(goBin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, errOut.Bytes())
		}
		return out.Bytes()
	}
	cmdDir := filepath.Join(bin, "cmd") + string(filepath.Separator)
	harness := filepath.Join(bin, "harness")
	run("build", "-o", cmdDir, noInline, "./cmd/...")
	run("build", "-C", "benchmark", "-o", harness, noInline, ".")

	decls := declaredFuncs(t, root)
	dirs := map[string]bool{}
	for _, d := range decls {
		dir, _, _ := strings.Cut(d.key, ".")
		dirs[dir] = true
	}
	linkedBy := func(paths ...string) map[string]bool {
		set := map[string]bool{}
		for _, p := range paths {
			for _, key := range linkedKeys(run("tool", "nm", p), dirs) {
				set[key] = true
			}
		}
		return set
	}
	cmds, err := filepath.Glob(cmdDir + "*")
	if err != nil || len(cmds) == 0 {
		t.Fatalf("no command binaries in %s (%v)", cmdDir, err)
	}
	byCmd, byHarness := linkedBy(cmds...), linkedBy(harness)
	if len(decls) < 100 || len(byCmd) < 100 {
		t.Fatalf("%d functions declared, %d symbols linked by the commands: the parse or the symbol tables are empty", len(decls), len(byCmd))
	}

	allow := readAllowlist(t, filepath.Join(root, "testdata", "reachable.txt"))
	declared := map[string]bool{}
	var harnessOnly []string
	harnessLines, linked := 0, 0
	for _, d := range decls {
		declared[d.key] = true
		reason, listed := allow[d.key]
		switch {
		case byCmd[d.key] || byHarness[d.key]:
			if listed {
				t.Errorf("%s: %s is linked, but testdata/reachable.txt still names it (%s): delete the entry", d.pos, d.key, reason)
			}
			if byCmd[d.key] {
				linked++
			} else {
				harnessOnly = append(harnessOnly, d.pos+": "+d.key)
				harnessLines += d.lines
			}
		case !listed:
			t.Errorf("%s: %s is linked by no command and not by the benchmark harness: delete it, move a test helper into a _test.go file or internal/testnet, or name it in testdata/reachable.txt with a reason", d.pos, d.key)
		}
	}
	for key := range allow {
		if !declared[key] {
			t.Errorf("testdata/reachable.txt names %s, which no non-test file declares: delete the entry", key)
		}
	}
	t.Logf("%d library functions; %d linked by the commands; %d (%d lines) linked only by the benchmark harness:\n%s",
		len(decls), linked, len(harnessOnly), harnessLines, strings.Join(harnessOnly, "\n"))
}

// declaredFuncs parses every non-test Go file that the current platform
// builds, outside cmd/, benchmark/ and testdata/, and returns its functions
// and methods in file order. init functions are skipped: they have no caller
// to lose.
func declaredFuncs(t *testing.T, root string) []funcDecl {
	t.Helper()
	var decls []funcDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if e.IsDir() {
			switch {
			case rel == ".":
			case rel == "cmd", rel == "benchmark", e.Name() == "testdata", strings.HasPrefix(e.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(rel))
		if pkg == "." {
			pkg = "roadskyline"
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			p := fset.Position(fn.Pos())
			decls = append(decls, funcDecl{
				key:   key,
				pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line),
				lines: fset.Position(fn.End()).Line - fset.Position(start).Line + 1,
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// recvType names a method's receiver type without pointer or type
// parameters: *Queue[T] is Queue.
func recvType(x ast.Expr) string {
	for {
		switch r := x.(type) {
		case *ast.StarExpr:
			x = r.X
		case *ast.IndexExpr:
			x = r.X
		case *ast.IndexListExpr:
			x = r.X
		case *ast.ParenExpr:
			x = r.X
		case *ast.Ident:
			return r.Name
		default:
			return "?"
		}
	}
}

// linkedKeys reads go tool nm output and returns the funcDecl key of every
// text symbol of this module, and the key of every function enclosing a
// closure symbol: roadskyline/internal/pqueue.(*Queue[go.shape.int]).Push is
// internal/pqueue.Queue.Push, and pkg.F.func1 also counts as pkg.F.
func linkedKeys(nm []byte, dirs map[string]bool) []string {
	var keys []string
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		sym := fields[2]
		pkg, rest := "", ""
		for dir := range dirs {
			path := "roadskyline/" + dir
			if dir == "roadskyline" {
				path = dir
			}
			if strings.HasPrefix(sym, path+".") {
				pkg, rest = dir, sym[len(path)+1:]
				break
			}
		}
		if pkg == "" {
			continue
		}
		var name strings.Builder
		depth := 0
		for _, c := range rest {
			switch {
			case c == '[':
				depth++
			case c == ']':
				depth--
			case depth == 0 && c != '(' && c != ')' && c != '*':
				name.WriteRune(c)
			}
		}
		parts := strings.Split(strings.TrimSuffix(name.String(), "-fm"), ".")
		for i := range parts {
			keys = append(keys, pkg+"."+strings.Join(parts[:i+1], "."))
		}
	}
	return keys
}

// readAllowlist reads testdata/reachable.txt: one "<key> <reason>" a line,
// blank lines and # comments skipped, every reason one of reachableReasons.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if !reachableReasons[reason] {
			t.Errorf("testdata/reachable.txt:%d: %q: the reason must be one of test support, public API, interface method", i+1, line)
		}
		if _, dup := allow[key]; dup {
			t.Errorf("testdata/reachable.txt:%d: %s is named twice", i+1, key)
		}
		allow[key] = reason
	}
	return allow
}
