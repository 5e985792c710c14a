package roadskyline

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// fusedOp matches an arm64 fused multiply-add in a -gcflags=-S listing and
// captures the source position the compiler charged it to.
var fusedOp = regexp.MustCompile(`\(([^()]+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[DS])\b`)

// TestNoFusedMultiplyAdd holds every architecture to amd64's rounding. The Go
// spec lets a compiler fuse x*y + z into one rounding, and arm64, ppc64le,
// s390x and riscv64 do, so the same source would generate different networks
// and break the bit-identical answers the pins and the oracles compare. An
// explicit float64(...) conversion of a product forbids the fusion. The test
// cross-compiles the repository's non-test packages for arm64 and fails on any
// fused instruction, naming the line the compiler charged it to: that line
// either makes the product or consumes one made by an inlined function, whose
// product is then the one to wrap. Fusion inside the standard library's own
// functions is outside this listing.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goBin := goCommand(t, "cross-compiles the module for arm64")
	cmd := exec.Command(goBin, "build", "-gcflags=-S", "./internal/...", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out.Bytes())
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var fused []string
	listed := false
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// The guard must not pass on an empty listing (a build that printed
		// no assembly would show no fusion either).
		if strings.HasPrefix(line, "roadskyline/internal/geom.Point.DistSq STEXT") {
			listed = true
		}
		if m := fusedOp.FindStringSubmatch(line); m != nil {
			pos := m[1]
			if rel, err := filepath.Rel(root, pos); err == nil {
				pos = rel
			}
			fused = append(fused, pos+": "+m[2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !listed {
		t.Fatal("the arm64 listing holds no assembly for geom.Point.DistSq; was -gcflags=-S applied?")
	}
	for _, f := range fused {
		t.Errorf("fused multiply-add at %s", f)
	}
	if len(fused) > 0 {
		t.Logf("%d fused instructions: wrap each product a sum consumes in float64(...)", len(fused))
	}
}

// goCommand returns the go command of the toolchain running the tests, for
// the tests that build the repository and inspect what comes out. Under
// -short, or without a go command, the test is skipped with why.
func goCommand(t *testing.T, why string) string {
	t.Helper()
	if testing.Short() {
		t.Skip(why)
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		if goBin, err = exec.LookPath("go"); err != nil {
			t.Skip("no go command: " + why)
		}
	}
	return goBin
}
