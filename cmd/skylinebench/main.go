// Command skylinebench regenerates the paper's evaluation figures
// (Section 6) at full paper scale, printing one table per figure in the
// same layout as the published plots. It also writes one query's causal
// trace (-trace) and profiles a run (-cpuprofile, -memprofile).
// Throughput, latency and the per-layer ledger are measured by the
// benchmark/ harness; the exact-counter gate is TestTrajectory.
//
// Usage:
//
//	skylinebench                  # everything (takes a while at scale 1)
//	skylinebench -fig 4a          # just Figure 4(a)
//	skylinebench -fig 5 -trials 3 # Figures 5(a)-(c) with 3 query sets
//	skylinebench -scale 0.2       # all figures on 20%-size networks
//	skylinebench -fig ablations   # the design-choice ablations
//	skylinebench -trace q.json    # one traced query per algorithm, slowest as Chrome trace JSON
//	skylinebench -fig 5 -cpuprofile cpu.pprof  # profile a run (-memprofile for allocations)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"roadskyline"
	"roadskyline/internal/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to run: 4a 4b 4c 5 6q 6w ablations all")
		scale   = flag.Float64("scale", 1.0, "network size scale (1 = paper scale)")
		trials  = flag.Int("trials", 10, "query sets averaged per setting (paper: 10)")
		seed    = flag.Int64("seed", 2007, "random seed")
		quickQ  = flag.Bool("quick", false, "use the reduced Quick configuration")
		csv     = flag.Bool("csv", false, "emit tables as CSV")
		lms     = flag.Int("landmarks", 0, "ALT landmark count per environment (0 = default, negative disables)")
		jsonOut = flag.String("json", "", "also write machine-readable results to this JSON file")
		traceF  = flag.String("trace", "", "run one traced query per algorithm and write the slowest one's Chrome trace-event JSON (Perfetto-loadable) to this file instead of figures")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write an allocation profile of the run to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skylinebench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()
	// exit is os.Exit for the paths below: deferred calls do not run on
	// os.Exit, and a failed run's profile is still worth having.
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	if *traceF != "" {
		if err := traceBench(*scale, *seed, *lms, *traceF); err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: trace: %v\n", err)
			exit(1)
		}
		return
	}

	cfg := experiments.Default()
	if *quickQ {
		cfg = experiments.Quick()
	}
	cfg.Scale = *scale
	cfg.Trials = *trials
	cfg.Seed = *seed
	cfg.Landmarks = *lms
	if *quickQ && !flagSet("scale") {
		cfg.Scale = experiments.Quick().Scale
	}
	if *quickQ && !flagSet("trials") {
		cfg.Trials = experiments.Quick().Trials
	}
	lab := experiments.NewLab(cfg)

	fmt.Printf("reproducing ICDE'07 multi-source road-network skyline figures "+
		"(scale=%.2f, trials=%d, seed=%d)\n\n", cfg.Scale, cfg.Trials, cfg.Seed)

	start := time.Now()
	want := strings.ToLower(*fig)
	ran := false
	var collected []experiments.Table
	show := func(t experiments.Table) {
		collected = append(collected, t)
		if *csv {
			fmt.Printf("# %s — %s\n%s\n", t.Figure, t.Title, t.CSV())
			return
		}
		fmt.Println(t)
	}
	run1 := func(name string, f func() (experiments.Table, error)) {
		if want != "all" && want != name {
			return
		}
		ran = true
		tab, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: %s: %v\n", name, err)
			exit(1)
		}
		show(tab)
	}
	run3 := func(name string, f func() ([3]experiments.Table, error)) {
		if want != "all" && want != name {
			return
		}
		ran = true
		tabs, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: %s: %v\n", name, err)
			exit(1)
		}
		for _, t := range tabs {
			show(t)
		}
	}

	run1("4a", lab.Fig4a)
	run1("4b", lab.Fig4b)
	run1("4c", lab.Fig4c)
	run3("5", lab.Fig5)
	run3("6q", lab.Fig6Q)
	run3("6w", lab.Fig6W)
	if want == "all" || want == "ablations" {
		ran = true
		for _, f := range []func() (experiments.Table, error){
			lab.AblationPLB, lab.AblationAStar, lab.AblationLandmarks, lab.AblationClustering, lab.AblationBuffer,
		} {
			tab, err := f()
			if err != nil {
				fmt.Fprintf(os.Stderr, "skylinebench: ablation: %v\n", err)
				exit(1)
			}
			show(tab)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "skylinebench: unknown figure %q (want 4a 4b 4c 5 6q 6w ablations all)\n", *fig)
		exit(2)
	}
	elapsed := time.Since(start)
	fmt.Printf("done in %v\n", elapsed.Round(time.Millisecond))
	if *jsonOut != "" {
		out := benchJSON{
			Figure: want, Scale: cfg.Scale, Trials: cfg.Trials, Seed: cfg.Seed,
			Quick: *quickQ, ElapsedSeconds: elapsed.Seconds(), Tables: collected,
		}
		if err := writeJSON(*jsonOut, out); err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: %v\n", err)
			exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// benchJSON is the machine-readable result document behind -json: the run
// configuration plus every table produced, in the order printed.
type benchJSON struct {
	Figure         string              `json:"figure"`
	Scale          float64             `json:"scale"`
	Trials         int                 `json:"trials"`
	Seed           int64               `json:"seed"`
	Quick          bool                `json:"quick"`
	ElapsedSeconds float64             `json:"elapsed_seconds"`
	Tables         []experiments.Table `json:"tables"`
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scaleSpec shrinks a network spec to `scale` of its paper size, keeping
// it connected (at least 100 nodes, at least a spanning tree of edges)
// and stamping the seed.
func scaleSpec(spec roadskyline.NetworkSpec, scale float64, seed int64) roadskyline.NetworkSpec {
	if scale > 0 && scale != 1 {
		spec.Nodes = max(int(float64(spec.Nodes)*scale), 100)
		spec.Edges = max(int(float64(spec.Edges)*scale), spec.Nodes-1)
	}
	spec.Seed = seed
	return spec
}

// traceBench runs one traced query per algorithm on a warm engine and
// writes the slowest one's causal trace as Chrome trace-event JSON — a
// one-command way to get a Perfetto-loadable trace out of the benchmark
// environment (see docs/OBSERVABILITY.md).
func traceBench(scale float64, seed int64, landmarks int, out string) error {
	spec := scaleSpec(roadskyline.CA, scale, seed)
	n, err := roadskyline.Generate(spec)
	if err != nil {
		return err
	}
	eng, err := roadskyline.NewEngine(n, n.GenerateObjects(0.5, 0, seed), roadskyline.EngineConfig{
		Landmarks:      landmarks,
		WarmCache:      true,
		FlightRecorder: roadskyline.FlightRecorderConfig{Size: 16},
	})
	if err != nil {
		return err
	}
	points := n.GenerateQueryPoints(4, 0.1, seed)
	var slowest roadskyline.FlightRecord
	for _, alg := range []roadskyline.Algorithm{roadskyline.CEAlg, roadskyline.EDCAlg, roadskyline.LBCAlg} {
		res, err := eng.Skyline(roadskyline.Query{Points: points, Algorithm: alg, Trace: true})
		if err != nil {
			return fmt.Errorf("%v query: %w", alg, err)
		}
		rec, ok := eng.TraceRecord(res.TraceID)
		if !ok {
			return fmt.Errorf("%v query: trace %s not retained", alg, res.TraceID)
		}
		fmt.Printf("%-4v trace %s: %d spans, %d skyline points, total %v\n",
			alg, rec.TraceID, len(rec.Spans), len(res.Points), rec.Total.Round(time.Microsecond))
		if rec.Total > slowest.Total {
			slowest = rec
		}
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := roadskyline.WriteTraceEvents(f, slowest); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (trace %s, load it at https://ui.perfetto.dev)\n", out, slowest.TraceID)
	return nil
}

// startProfiles starts the CPU profile and arranges the allocation profile
// behind -cpuprofile/-memprofile; either path may be empty. The returned
// stop function finishes both; it runs once, deferred on return or from
// exit.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "skylinebench: cpuprofile: %v\n", err)
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				fmt.Fprintf(os.Stderr, "skylinebench: memprofile: %v\n", err)
			}
		}
	}, nil
}

// writeAllocProfile writes the allocs profile (every allocation since the
// start, which is what per-query allocation hunting needs) after a GC so
// the in-use figures are current too.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
