package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// result is one run of one workload: the end-to-end table of an untraced
// run, or the per-layer ledger of a traced pass.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	TraceFile string             `json:"trace_file,omitempty"`

	notes []string // diagnostics printed beside the table, never compared
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Comparable bool      `json:"comparable"`
	Results    []*result `json:"results"`
}

func (r *result) specs() []metricSpec {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// line is the driver's contract: one JSON object, the last line of stdout.
func (r *result) line() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := map[string]mv{}
	for _, s := range r.specs() {
		m[s.name] = mv{r.Metrics[s.name], s.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, m})
	return string(b)
}

// print writes every metric by name with its unit.
func (r *result) print(w io.Writer) {
	pass := "end to end, tracing off"
	if r.Traced {
		pass = "per layer, traced pass"
	}
	fmt.Fprintf(w, "== %s  seed %d  (%s)  attempted %d  failed %d\n", r.Workload, r.Seed, pass, r.Attempted, r.Failed)
	for _, s := range r.specs() {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", s.name, r.Metrics[s.name], s.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// diagnostics are numbers worth reading beside a run that are not metrics:
// p99 rests on too few samples to gate on, and the sample and pass counts
// say what the percentiles rest on.
func diagnostics(w *workload, r *runResult) []string {
	lat := make([]float64, 0, len(r.samples))
	var lag []float64
	for i := range r.samples {
		if r.samples[i].err == nil {
			lat = append(lat, ms(r.samples[i].lat))
			lag = append(lag, ms(r.samples[i].lag))
		}
	}
	if len(lat) == 0 {
		return nil
	}
	sort.Float64s(lat)
	notes := []string{
		fmt.Sprintf("%d samples in %d passes over %.2f s; highest percentile with >=10 samples beyond it: p%g; p99 %.4g ms (diagnostic)",
			len(lat), len(r.passes), r.wall.Seconds(), highestSupported(len(lat), 90, 95, 99, 99.9), percentile(lat, 99)),
	}
	if w.openRate > 0 {
		sort.Float64s(lag)
		notes = append(notes, fmt.Sprintf("open loop at %g/s: generator lag p95 %.4g ms", w.openRate, percentile(lag, 95)))
	}
	return notes
}
