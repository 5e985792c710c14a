// Command benchmark is the repo's performance reference: five workloads
// against the skyline server and library, six end-to-end metrics measured
// with tracing off, and a per-layer ledger taken from outside the program
// by a separate traced pass. See README.md in this directory.
//
//	bash benchmark/run.sh --workload paper_cold --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . -seed 1 -out a.json      # every workload, both passes
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs every workload, untraced then traced")
		seed    = flag.Int64("seed", 1, "seed of every generated input (objects, query catalog, arrival schedule, pass order)")
		seconds = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics with tracing off, 1 the per-layer metrics from the traced pass")
		quick   = flag.Bool("quick", false, "smoke run: same code paths on catalogs about a tenth the size for a tenth of the time; the output is marked non-comparable")
		out     = flag.String("out", "", "without -workload: also write every result to this JSON file, the input of -compare")
		compare = flag.Bool("compare", false, "compare two -out files (reference, candidate) given as arguments; exit 1 on any breach")
		spec    = flag.Bool("benchmark-json", false, "print BENCHMARK.json as spec.go and workloads.go define it, and exit")
		spinner = flag.Bool("spin", false, "internal: run as a keep-busy child (see spin.go)")
	)
	flag.Parse()
	// The machine has two cores; the harness, the in-process systems and any
	// child all run on two.
	runtime.GOMAXPROCS(2)

	if *spinner {
		spin()
		return 0
	}
	if *spec {
		fmt.Println(benchmarkJSON())
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare reference.json candidate.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *quick {
		*seconds = 1
	}

	b, err := newBench()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer b.cleanup()
	sig := make(chan os.Signal, 1) // one pending signal is all Notify needs
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.cleanup()
		os.Exit(1)
	}()

	ws := workloads(*seed, *quick)
	if *name != "" {
		w, err := findWorkload(ws, *name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		res, err := b.run(w, *seconds, *trace == 1, *quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.print(os.Stderr)
		fmt.Println(res.line())
		return 0
	}

	file := resultFile{Seed: *seed, Seconds: *seconds, Comparable: !*quick}
	failed := false
	for _, w := range ws {
		for _, traced := range []bool{false, true} {
			res, err := b.run(w, *seconds, traced, *quick)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			res.print(os.Stdout)
			file.Results = append(file.Results, res)
			failed = failed || res.Failed > 0
		}
	}
	if !file.Comparable {
		fmt.Println("quick run: these numbers are a smoke test and are not comparable with anything")
	}
	if *out != "" {
		buf, _ := json.MarshalIndent(file, "", " ")
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// bench holds what one invocation shares: the scratch directory under
// .bench_build/ at the root of the checkout (everything the harness writes
// goes there), the skylineserve binary, and the live system to stop on exit.
type bench struct {
	root     string
	tmp      string
	serveBin string
	dirSeq   int

	spin *spinners // keep-busy children, see spin.go

	mu   sync.Mutex
	live []*system
	once sync.Once
}

func newBench() (*bench, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "bin"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{root: root, tmp: tmp}
	if b.serveBin, err = buildServe(root, filepath.Join(build, "bin")); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	if b.spin, err = startSpinners(); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	return b, nil
}

func (b *bench) track(s *system) {
	b.mu.Lock()
	b.live = append(b.live, s)
	b.mu.Unlock()
}

// closeSystem closes s and forgets it.
func (b *bench) closeSystem(s *system) error {
	b.mu.Lock()
	for i, l := range b.live {
		if l == s {
			b.live = append(b.live[:i], b.live[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
	return s.close()
}

// cleanup stops whatever is still running (and waits for it) and removes
// the scratch directory; it runs on every way out, signals included.
func (b *bench) cleanup() {
	b.once.Do(func() {
		b.mu.Lock()
		live := b.live
		b.live = nil
		b.mu.Unlock()
		for _, s := range live {
			s.close()
		}
		if b.spin != nil {
			b.spin.stop()
		}
		os.RemoveAll(b.tmp)
	})
}

// run executes one workload once: the measured untraced run, or the traced
// pass that yields the per-layer ledger.
func (b *bench) run(w *workload, seconds float64, traced, quick bool) (*result, error) {
	t0 := time.Now()
	ds, err := loadDataset(b.tmp, w.dataset, w.objAttrs)
	if err != nil {
		return nil, err
	}
	cat, err := w.catalog(ds, w.seed, quick)
	if err != nil {
		return nil, err
	}
	fillOracle(ds, cat)
	res := &result{Workload: w.name, Seed: w.seed, Traced: traced}
	t1 := time.Now()
	defer func() {
		res.notes = append(res.notes, fmt.Sprintf("harness: inputs and oracle %.2f s, everything after %.2f s", t1.Sub(t0).Seconds(), time.Since(t1).Seconds()))
	}()
	if traced {
		if err := b.tracedPass(w, ds, cat, seconds, quick, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	sys, setupS, err := b.setupMedian(w, ds, w.setups)
	if err != nil {
		return nil, err
	}
	defer b.closeSystem(sys)
	if err := warmUp(w, sys, cat); err != nil {
		return nil, err
	}
	r, err := measure(w, sys, cat, seconds, nil)
	if err != nil {
		return nil, err
	}
	reportFailures(cat, r.samples)
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Metrics = endToEndMetrics(w, r, setupS)
	res.notes = append(res.notes, diagnostics(w, r)...)
	return res, nil
}
