package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"roadskyline/internal/core"
)

// sample is one executed operation as its caller saw it.
type sample struct {
	q       int           // catalog index
	lat     time.Duration // closed loop: send to last byte; open loop: due time to last byte
	lag     time.Duration // open loop: how late the generator sent it
	initial time.Duration // Stats.Initial - Stats.InitialIOTime
	pages   int64         // Stats.NetworkPages
	gets    int64         // Stats.NetworkGets
	rtree   int64         // Stats.RTreeNodes
	lmWins  int           // Stats.LandmarkWins
	euWins  int           // Stats.EuclidWins
	bytes   int
	core    core.Metrics // counters of a direct core.Run (traced pass only)
	err     error
}

// execute sends catalog entry qi, stops the clock when the answer is complete,
// then decodes and checks it. since is where latency counts from.
func execute(t target, cat []query, qi int, since time.Time, rec *recorder) sample {
	q := &cat[qi]
	s := sample{q: qi}
	sp := rec.begin(t.layer(), -1, qi)
	a, err := t.do(q)
	s.lat = time.Since(since)
	rec.end(sp)
	if err == nil {
		err = a.decode()
	}
	if err == nil {
		err = q.check(a)
	}
	if err != nil {
		s.err = err
		return s
	}
	s.initial = a.stats.Initial - a.stats.InitialIOTime
	s.pages, s.gets, s.rtree = a.stats.NetworkPages, a.stats.NetworkGets, a.stats.RTreeNodes
	s.lmWins, s.euWins = a.stats.LandmarkWins, a.stats.EuclidWins
	s.bytes, s.core = a.bytes, a.core
	return s
}

// closedPass sends order once, in order, from the given number of callers:
// each caller sends its next request only after the previous answer. The
// dispenser hands every position of order to exactly one caller.
func closedPass(t target, cat []query, order []int, callers int, rec *recorder) ([]sample, time.Duration) {
	out := make([]sample, len(order))
	d := newDispenser(len(order))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := d.take(); ok; i, ok = d.take() {
				out[i] = execute(t, cat, order[i], time.Now(), rec)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// openPass sends order on a schedule of due times, whatever the answers do:
// the callers pull the next arrival, sleep until it is due and send it, and
// latency counts from the due time, so a stall is charged to every request
// it delayed. Nothing is dropped; a generator that cannot keep up shows as
// lag.
func openPass(t target, cat []query, order []int, due []time.Duration, callers int, rec *recorder) ([]sample, time.Duration) {
	out := make([]sample, len(order))
	d := newDispenser(len(order))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := d.take(); ok; i, ok = d.take() {
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				lag := time.Since(at)
				out[i] = execute(t, cat, order[i], at, rec)
				out[i].lag = lag
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// passOrder is the seeded order of pass p over a catalog of n entries.
func passOrder(n int, seed int64, p int) []int {
	return newRand(seed*7919 + int64(p)).Perm(n)
}

// passStat is one whole pass over the catalog.
type passStat struct {
	wall, cpu time.Duration
	ok, n     int
}

// runResult is one measured run.
type runResult struct {
	samples   []sample
	passes    []passStat
	wall      time.Duration
	attempted int
	failed    int
}

// measure runs whole passes over the catalog until seconds have gone by, so
// every run executes the same multiset of queries a whole number of times.
// A new pass starts only while at least half of it is expected to fit. An
// open loop is one pass: its schedule covers the catalog as many whole
// times as fit in seconds at the workload's rate.
func measure(w *workload, sys *system, cat []query, seconds float64, rec *recorder) (*runResult, error) {
	r := &runResult{}
	start := time.Now()
	pass := func(run func() ([]sample, time.Duration)) error {
		cpu0, err := sys.cpu()
		if err != nil {
			return err
		}
		s, wall := run()
		cpu1, err := sys.cpu()
		if err != nil {
			return err
		}
		r.samples = append(r.samples, s...)
		r.passes = append(r.passes, passStat{wall: wall, cpu: cpu1 - cpu0, ok: countOK(s), n: len(s)})
		return nil
	}
	if w.openRate > 0 {
		var order []int
		arrivals := int(seconds * w.openRate)
		// The arrival pattern — when requests are due and which catalog
		// entry each one is — comes from baseSeed like the catalog's edges:
		// with 600 arrivals, which queries happen to land in a burst moves
		// p95 by 40% from one drawn pattern to the next. Every seed replays
		// the same afternoon with its own query points.
		for p := 0; p < arrivals/len(cat); p++ {
			order = append(order, passOrder(len(cat), baseSeed, p)...)
		}
		if len(order) == 0 { // less than one cycle fits (the traced pass's short runs)
			order = passOrder(len(cat), baseSeed, 0)[:max(1, arrivals)]
		}
		due := poissonSchedule(len(order), w.openRate, baseSeed)
		if err := pass(func() ([]sample, time.Duration) {
			return openPass(sys.target, cat, order, due, w.callers, rec)
		}); err != nil {
			return nil, err
		}
	} else {
		for p := 0; ; p++ {
			if err := pass(func() ([]sample, time.Duration) {
				return closedPass(sys.target, cat, passOrder(len(cat), w.seed, p), w.callers, rec)
			}); err != nil {
				return nil, err
			}
			if time.Since(start).Seconds()+r.passes[p].wall.Seconds()/2 >= seconds {
				break
			}
		}
	}
	r.wall = time.Since(start)
	r.attempted = len(r.samples)
	r.failed = r.attempted - countOK(r.samples)
	return r, nil
}

func countOK(s []sample) int {
	n := 0
	for i := range s {
		if s[i].err == nil {
			n++
		}
	}
	return n
}

// warmUp sends the first n catalog entries (wrapping) untimed, so caches,
// buffer pools and lazily grown scratch space are in their steady state
// when the clock starts.
func warmUp(w *workload, sys *system, cat []query) error {
	if w.warm == 0 {
		return nil
	}
	order := make([]int, w.warm)
	for i := range order {
		order[i] = i % len(cat)
	}
	s, _ := closedPass(sys.target, cat, order, w.callers, nil)
	for i := range s {
		if s[i].err != nil {
			return fmt.Errorf("warm-up query %s: %w", &cat[s[i].q], s[i].err)
		}
	}
	return nil
}

// reportFailures prints each failed operation with its query, up to a limit.
func reportFailures(cat []query, samples []sample) {
	shown := 0
	for i := range samples {
		if samples[i].err == nil {
			continue
		}
		if shown++; shown > 10 {
			fmt.Fprintln(os.Stderr, "  ... further failures not shown")
			return
		}
		fmt.Fprintf(os.Stderr, "  FAILED %s: %v\n", &cat[samples[i].q], samples[i].err)
	}
}

// lowerQuartile is the nearest-rank 25th percentile of an unsorted sample.
func lowerQuartile(v []float64) float64 { return percentile(sortedCopy(v), 25) }

// sortedValues extracts one value per sample, ascending. With perEntry it
// first reduces a closed loop's samples to one value per catalog entry: the
// lower quartile of the values that entry produced over the run's passes.
// Every pass asks the same questions, so an entry's values differ only by
// what else the machine was doing, and that only ever adds time: on the
// shared two-core sandbox a stall of a few milliseconds hits one sample in
// ten. The lower quartile is where an entry's undisturbed executions land;
// the percentiles over entries then describe the catalog, not the
// neighbours. A failed execution counts as +Inf, and an entry keeps it
// unless three quarters of its executions succeeded.
func sortedValues(samples []sample, perEntry bool, value func(*sample) float64) []float64 {
	by := map[int][]float64{}
	for i := range samples {
		v, key := math.MaxFloat64, i
		if samples[i].err == nil {
			v = value(&samples[i])
		}
		if perEntry {
			key = samples[i].q
		}
		by[key] = append(by[key], v)
	}
	out := make([]float64, 0, len(by))
	for _, v := range by {
		out = append(out, lowerQuartile(v))
	}
	sort.Float64s(out)
	return out
}

// endToEndMetrics turns a run into the end-to-end table. Throughput and CPU
// are the median over passes of a pass's verified answers per second and
// CPU per query. Latencies are exact-sort percentiles: over the catalog's
// entries (see sortedValues) in a closed loop, and over every request in an open
// loop, where waiting behind other arrivals is the thing measured. A failed
// operation has no latency — it sorts above every answered one — and is not
// a verified answer, so it lowers throughput.
func endToEndMetrics(w *workload, r *runResult, setupS float64) map[string]float64 {
	closed := w.openRate == 0
	lat := sortedValues(r.samples, closed, func(s *sample) float64 { return ms(s.lat) })
	ini := sortedValues(r.samples, closed, func(s *sample) float64 { return ms(s.initial) })
	var qps, cpu []float64
	for _, p := range r.passes {
		qps = append(qps, float64(p.ok)/p.wall.Seconds())
		cpu = append(cpu, ms(p.cpu)/float64(p.n))
	}
	return map[string]float64{
		"setup_s":          setupS,
		"throughput_qps":   median(qps),
		"latency_p50_ms":   percentile(lat, 50),
		"latency_p95_ms":   percentile(lat, 95),
		"cpu_ms_per_query": median(cpu),
		"initial_ms_p50":   percentile(ini, 50),
	}
}
