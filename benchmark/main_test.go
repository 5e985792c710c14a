package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/graph"
)

// The keep-busy children are this binary started with -spin; under go test
// that is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-spin" {
		spin()
		return
	}
	os.Exit(m.Run())
}

// Spinners run at nice 19 and are gone after stop, which closes the pipe
// whose closing also ends them when the harness dies.
func TestSpinnersLifecycle(t *testing.T) {
	s, err := startSpinners()
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, c := range s.cmds {
		pids = append(pids, c.Process.Pid)
	}
	if len(pids) == 0 {
		t.Fatal("no spinner started")
	}
	time.Sleep(200 * time.Millisecond) // let the children renice themselves
	for _, pid := range pids {
		nice, err := syscall.Getpriority(syscall.PRIO_PROCESS, pid)
		// The raw syscall returns 20 - nice.
		if err != nil || 20-nice != 19 {
			t.Errorf("spinner %d at nice %d (%v), want 19", pid, 20-nice, err)
		}
	}
	s.stop()
	for _, pid := range pids {
		if !processGone(pid) {
			t.Errorf("spinner %d still alive after stop", pid)
		}
	}
}

func TestPercentileExactSort(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	s := sortedCopy(v)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample p95 = %g, want 7", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// The highest percentile reported must keep at least ten samples beyond it:
// at 800 samples that is p95 (40 beyond), not p99 (8 beyond).
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{800, 95}, {1000, 99}, {150, 90}, {100, 90}, {99, 50}, {10000, 99.9}, {20000, 99.9}} {
		if got := highestSupported(c.n, 90, 95, 99, 99.9); got != c.want {
			t.Errorf("n=%d: highest supported percentile p%g, want p%g", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(800, 99); got != 8 {
		t.Errorf("samples beyond p99 of 800 = %d, want 8", got)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a, b := poissonSchedule(1000, 60, 7), poissonSchedule(1000, 60, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from one seed differ")
	}
	if reflect.DeepEqual(a, poissonSchedule(1000, 60, 8)) {
		t.Fatal("schedules from different seeds are identical")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	if rate := float64(len(a)) / a[len(a)-1].Seconds(); rate < 50 || rate > 70 {
		t.Errorf("achieved rate %.1f/s, want about 60/s", rate)
	}
}

func testDataset(t *testing.T, attrs int) *dataset {
	t.Helper()
	ds, err := loadDataset(t.TempDir(), "CA", attrs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// Every catalog is a function of the seed alone: two constructions on two
// separately written and re-read network files are bit-identical.
func TestCatalogsAreSeeded(t *testing.T) {
	for _, w := range workloads(5, true) {
		if w.dataset != "CA" {
			continue // NA's generator is the same code; CA keeps the test fast
		}
		a, err := w.catalog(testDataset(t, w.objAttrs), 5, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.catalog(testDataset(t, w.objAttrs), 5, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two catalogs from one seed differ (or are empty: %d entries)", w.name, len(a))
		}
		c, err := w.catalog(testDataset(t, w.objAttrs), 6, true)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: catalogs from different seeds are identical", w.name)
		}
	}
	if !reflect.DeepEqual(passOrder(300, 5, 2), passOrder(300, 5, 2)) {
		t.Error("pass order is not a function of (seed, pass)")
	}
}

// Run with -race: any number of callers drain a dispenser and every index is
// handed out exactly once.
func TestDispenserHandsOutEachIndexOnce(t *testing.T) {
	const n, callers = 20000, 8
	d := newDispenser(n)
	seen := make([]int32, n)
	var extra sync.Map
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := d.take(); ok; i, ok = d.take() {
				if i < 0 || i >= n {
					extra.Store(i, true)
					continue
				}
				seen[i]++ // a second taker of i is a data race -race reports
			}
		}()
	}
	wg.Wait()
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d handed out %d times", i, c)
		}
	}
	extra.Range(func(k, _ any) bool { t.Errorf("index %v out of range handed out", k); return true })
	if _, ok := d.take(); ok {
		t.Error("drained dispenser still hands out indices")
	}
}

func TestProcCPUReader(t *testing.T) {
	// Field 2 may contain spaces and parentheses; utime=250 stime=50 ticks.
	line := "4242 (sky line) serve)) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 9 0 100 1000000 500 18446744073709551615"
	got, err := parseProcStat(line)
	if err != nil || got != 3*time.Second {
		t.Fatalf("parseProcStat = %v, %v; want 3s", got, err)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
	if _, err := parseProcStat("1 (x) S 1 2"); err == nil {
		t.Error("short stat line accepted")
	}
	before, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
	}
	after, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if after-before < 50*time.Millisecond {
		t.Errorf("150 ms of spinning moved /proc CPU by %v", after-before)
	}
	self0, _ := selfCPU()
	if self0 <= 0 {
		t.Error("getrusage reports no CPU")
	}
	if peakRSSMB(os.Getpid()) <= 0 {
		t.Error("VmHWM not read")
	}
}

func smallCatalog(t *testing.T, attrs bool) (*dataset, []query) {
	t.Helper()
	n := 0
	if attrs {
		n = 1
	}
	ds := testDataset(t, n)
	rng := newRand(3)
	var cat []query
	for i := 0; i < 4; i++ {
		cat = append(cat, query{pts: locations(regionPoints(ds.g, newRand(baseSeed), rng, 0.1, i%2, i/2, 2, 3)), alg: allAlgs[i%3], attrs: attrs})
	}
	cat = append(cat, query{pts: cat[0].pts[:2], alg: allAlgs[0], attrs: attrs}) // shares two Dijkstras with query 0
	fillOracle(ds, cat)
	return ds, cat
}

// The harness's oracle shares Dijkstras between queries; it must still be
// bruteforce.NetworkSkyline, attribute dimensions included.
func TestOracleMatchesBruteforce(t *testing.T) {
	for _, attrs := range []bool{false, true} {
		ds, cat := smallCatalog(t, attrs)
		for i := range cat {
			q := &cat[i]
			pts := make([]graph.Location, len(q.pts))
			for j, p := range q.pts {
				pts[j] = gloc(p)
			}
			ids, matrix := bruteforce.NetworkSkyline(ds.g, ds.gobjs, pts, attrs)
			if len(ids) != len(q.want) || len(ids) == 0 {
				t.Fatalf("attrs=%v query %d: oracle has %d points, bruteforce %d", attrs, i, len(q.want), len(ids))
			}
			for k, id := range ids {
				if q.want[k].id != int32(id) || !reflect.DeepEqual(q.want[k].dists, matrix[id]) {
					t.Fatalf("attrs=%v query %d point %d: oracle (%d %v), bruteforce (%d %v)", attrs, i, k, q.want[k].id, q.want[k].dists, id, matrix[id])
				}
			}
		}
	}
}

// The correctness gate: a true answer passes in any order; one dropped
// point, one swapped object or one nudged distance is caught.
func TestCheckCatchesTamperedAnswers(t *testing.T) {
	_, cat := smallCatalog(t, false)
	q := &cat[0]
	build := func() *answer {
		a := &answer{}
		for k := len(q.want) - 1; k >= 0; k-- { // reversed: order must not matter
			a.ids = append(a.ids, q.want[k].id)
			a.dists = append(a.dists, append([]float64(nil), q.want[k].dists...))
		}
		return a
	}
	if err := q.check(build()); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	a := build()
	a.dists[0][0] += 1e-12
	if err := q.check(a); err != nil {
		t.Errorf("distance within tolerance rejected: %v", err)
	}
	a = build()
	a.ids, a.dists = a.ids[1:], a.dists[1:]
	if q.check(a) == nil {
		t.Error("answer with one point dropped accepted")
	}
	a = build()
	a.dists[len(a.dists)/2][1] += 1e-6
	if q.check(a) == nil {
		t.Error("answer with one distance nudged by 1e-6 accepted")
	}
	a = build()
	a.ids[0]++
	if err := q.check(a); err == nil && !containsID(q, a.ids[0]) {
		t.Error("answer with one object swapped accepted")
	}
	a = build()
	a.ids = append(a.ids, a.ids[0])
	a.dists = append(a.dists, a.dists[0])
	if q.check(a) == nil {
		t.Error("answer with one point duplicated accepted")
	}
}

func containsID(q *query, id int32) bool {
	for _, w := range q.want {
		if w.id == id {
			return true
		}
	}
	return false
}

func processGone(pid int) bool {
	return syscall.Kill(pid, 0) != nil
}

// A skylineserve child is started, answers, and is gone after stop; a child
// that cannot start leaves nothing behind either; cleanup stops a tracked
// system and removes the scratch directory.
func TestServerLifecycleAndCleanup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/skylineserve")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServe(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ds := testDataset(t, 0)

	srv, took, err := startServer(bin, "-net", ds.netPath, "-workers", "2")
	if err != nil {
		t.Fatal(err)
	}
	pid := srv.pid()
	if took <= 0 || processGone(pid) {
		t.Fatalf("server not running after start (took %v)", took)
	}
	if cpu, err := procCPU(pid); err != nil || cpu < 0 {
		t.Errorf("child CPU unreadable: %v %v", cpu, err)
	}
	cat := []query{{pts: locations(regionPoints(ds.g, newRand(baseSeed), newRand(1), 0.02, 0, 0, 1, 2)), alg: allAlgs[2]}}
	if err := httpQuery(ds, &cat[0]); err != nil {
		t.Fatal(err)
	}
	fillOracle(ds, cat)
	if s := execute(newHTTPTarget(srv.base, 1), cat, 0, time.Now(), nil); s.err != nil {
		t.Errorf("query against the child failed: %v", s.err)
	}
	if err := srv.stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if !processGone(pid) {
		t.Errorf("skylineserve %d still alive after stop", pid)
	}
	if err := srv.stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}

	// Failure path: the child exits before listening; startServer reports it
	// and has already waited for the process.
	if _, _, err := startServer(bin, "-net", filepath.Join(t.TempDir(), "missing.roadnet")); err == nil {
		t.Error("starting on a missing network file succeeded")
	} else if !strings.Contains(err.Error(), "skylineserve log") {
		t.Errorf("start failure does not carry the child's log: %v", err)
	}

	// cleanup: a live tracked child is stopped and the scratch directory goes.
	tmp := t.TempDir()
	b := &bench{root: root, tmp: filepath.Join(tmp, "run-x"), serveBin: bin}
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload(workloads(1, false), "serve_small")
	sys, _, err := b.setupMedian(w, ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.cleanup()
	if !processGone(sys.pid) {
		t.Errorf("cleanup left skylineserve %d running", sys.pid)
	}
	if _, err := os.Stat(b.tmp); !os.IsNotExist(err) {
		t.Errorf("cleanup left the scratch directory: %v", err)
	}
}

// BENCHMARK.json repeats spec.go and workloads.go for the driver.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", f.RunSeconds, defaultSeconds)
	}
	ws := workloads(1, false)
	if len(f.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, s)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != s.bound) {
				t.Errorf("%s %s: bound mismatch", kind, s.name)
			}
			if bounded && (s.bound <= 0 || s.bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", s.name, s.bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	for _, name := range exactPerLayer {
		found := false
		for _, s := range perLayer {
			found = found || s.name == name
		}
		if !found {
			t.Errorf("exact counter %s is not a per-layer metric", name)
		}
	}
}

func writeResults(t *testing.T, f resultFile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.json")
	b, _ := json.Marshal(f)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fullResults(comparable bool) resultFile {
	f := resultFile{Seed: 1, Seconds: 10, Comparable: comparable}
	for _, w := range workloads(1, false) {
		e := &result{Workload: w.name, Seed: 1, Attempted: 100, Metrics: map[string]float64{}}
		for _, s := range endToEnd {
			e.Metrics[s.name] = 10
		}
		l := &result{Workload: w.name, Seed: 1, Traced: true, Attempted: 100, Metrics: map[string]float64{}}
		for _, s := range perLayer {
			l.Metrics[s.name] = 3
		}
		f.Results = append(f.Results, e, l)
	}
	return f
}

func TestCompare(t *testing.T) {
	ref := writeResults(t, fullResults(true))
	var out bytes.Buffer
	if code := compareFiles(&out, ref, ref); code != 0 {
		t.Fatalf("a file against itself: exit %d\n%s", code, out.String())
	}

	worse := fullResults(true)
	worse.Results[0].Metrics["latency_p50_ms"] = 10 * (1 + endToEnd[2].bound + 0.01)
	out.Reset()
	if code := compareFiles(&out, ref, writeResults(t, worse)); code != 1 || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("latency beyond its bound: exit %d\n%s", code, out.String())
	}

	better := fullResults(true)
	better.Results[0].Metrics["latency_p50_ms"] = 5
	better.Results[0].Metrics["throughput_qps"] = 20
	out.Reset()
	if code := compareFiles(&out, ref, writeResults(t, better)); code != 0 {
		t.Errorf("an improvement counted as a breach: exit %d\n%s", code, out.String())
	}

	slower := fullResults(true)
	slower.Results[0].Metrics["throughput_qps"] = 10 * (1 - endToEnd[1].bound - 0.01)
	if code := compareFiles(&out, ref, writeResults(t, slower)); code != 1 {
		t.Errorf("throughput below its bound: exit %d", code)
	}

	counter := fullResults(true)
	counter.Results[1].Metrics["core.lbc_nodes_expanded"] = 3.0000001
	out.Reset()
	if code := compareFiles(&out, ref, writeResults(t, counter)); code != 1 || !strings.Contains(out.String(), "must repeat exactly") {
		t.Errorf("a moved exact counter: exit %d\n%s", code, out.String())
	}

	failed := fullResults(true)
	failed.Results[2].Failed = 1
	if code := compareFiles(&out, ref, writeResults(t, failed)); code != 1 {
		t.Errorf("a new failed operation: exit %d", code)
	}

	out.Reset()
	if code := compareFiles(&out, ref, writeResults(t, fullResults(false))); code != 2 || !strings.Contains(out.String(), "refused") {
		t.Errorf("a -quick file: exit %d\n%s", code, out.String())
	}
}

func TestResultLine(t *testing.T) {
	r := &result{Workload: "paper_cold", Attempted: 12, Failed: 1, Metrics: map[string]float64{"setup_s": 0.5}}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(r.line()), &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Attempted != 12 || got.Failed != 1 || len(got.Metrics) != len(endToEnd) || got.Metrics["setup_s"].Unit != "s" {
		t.Errorf("unexpected result line %s", r.line())
	}
	r.Traced = true
	got.Metrics = nil
	json.Unmarshal([]byte(r.line()), &got)
	if len(got.Metrics) != len(perLayer) {
		t.Errorf("traced line carries %d metrics, want %d", len(got.Metrics), len(perLayer))
	}
}
