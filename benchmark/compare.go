package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// setupFloorS keeps setup_s from failing on scheduler noise: a set-up that
// takes 15 ms may move by a quarter without anything having changed, so a
// difference below this many seconds never counts.
const setupFloorS = 0.05

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) find(workload string, traced bool) *result {
	for _, r := range f.Results {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// compareFiles prints, per workload, each end-to-end metric of the candidate
// against the reference with its relative difference (positive = worse) and
// bound, then the counters that must repeat exactly. It returns 0 when the
// candidate stays within every bound, 1 on any breach, 2 when the files
// cannot be compared at all.
func compareFiles(w io.Writer, refPath, candPath string) int {
	ref, err := readResultFile(refPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	cand, err := readResultFile(candPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	switch {
	case !ref.Comparable || !cand.Comparable:
		fmt.Fprintln(w, "compare: refused: a -quick run is a smoke test and is not comparable with anything")
		return 2
	case ref.Seed != cand.Seed || ref.Seconds != cand.Seconds:
		fmt.Fprintf(w, "compare: refused: seed %d for %g s against seed %d for %g s; both sides must run the same inputs for the same time\n",
			ref.Seed, ref.Seconds, cand.Seed, cand.Seconds)
		return 2
	}
	breaches := 0
	breach := func(format string, args ...any) {
		breaches++
		fmt.Fprintf(w, "  BREACH "+format+"\n", args...)
	}
	for _, wl := range workloads(ref.Seed, false) {
		fmt.Fprintf(w, "== %s\n", wl.name)
		r, c := ref.find(wl.name, false), cand.find(wl.name, false)
		if r == nil || c == nil {
			breach("end-to-end result missing on one side")
		} else {
			if c.Failed > r.Failed {
				breach("failed operations rose from %d of %d to %d of %d", r.Failed, r.Attempted, c.Failed, c.Attempted)
			}
			for _, s := range endToEnd {
				rv, cv := r.Metrics[s.name], c.Metrics[s.name]
				worse := (cv - rv) / rv
				if s.better == "higher" {
					worse = (rv - cv) / rv
				}
				verdict := "ok"
				if worse > s.bound && !(s.name == "setup_s" && cv-rv <= setupFloorS) {
					verdict = "BREACH"
					breaches++
				}
				fmt.Fprintf(w, "  %-18s %12.6g -> %12.6g %-4s %+7.2f%% worse  (bound %g%%)  %s\n",
					s.name, rv, cv, s.unit, 100*worse, 100*s.bound, verdict)
			}
		}
		r, c = ref.find(wl.name, true), cand.find(wl.name, true)
		if r == nil || c == nil {
			breach("per-layer result missing on one side")
			continue
		}
		exact := exactPerLayer
		if wl.name == "paper_cold" {
			exact = append([]string{"storage.pages_per_query"}, exact...)
		}
		for _, name := range exact {
			if r.Metrics[name] != c.Metrics[name] {
				breach("%s must repeat exactly: %.17g -> %.17g", name, r.Metrics[name], c.Metrics[name])
			}
		}
		fmt.Fprintf(w, "  %d exact counters compared\n", len(exact))
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(w, "within every bound")
	return 0
}
