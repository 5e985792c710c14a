package roadskyline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"roadskyline/internal/core"
	"roadskyline/internal/obs"
)

// recordSink is a Tracer that hands each finished query's record to a
// function.
type recordSink func(FlightRecord)

func (f recordSink) QueryDone(rec FlightRecord) { f(rec) }

// isPhase reports whether a span name is one of the algorithm phases.
func isPhase(name string) bool {
	switch Phase(name) {
	case PhaseCEFilter, PhaseCERefine, PhaseEDCSeed, PhaseEDCWindow, PhaseEDCVerify, PhaseLBCNN, PhaseLBCProbe:
		return true
	}
	return false
}

// TestPhaseSpans is the golden phase-sequence test, read off the causal
// trace: each algorithm's phase spans must not overlap, must start in
// order, must enter the algorithm's documented first phase first and its
// phases in the documented order, and Stats.Phases must be exactly their
// per-phase sums — the rows and the spans are written from one place.
func TestPhaseSpans(t *testing.T) {
	eng, n := poolTestEngine(t)
	pts := n.GenerateQueryPoints(3, 0.1, 5)

	tests := []struct {
		alg    Algorithm
		phases []Phase // exact first-entered order expected in Stats.Phases
	}{
		{CEAlg, []Phase{PhaseCEFilter, PhaseCERefine}},
		{EDCAlg, []Phase{PhaseEDCSeed, PhaseEDCVerify, PhaseEDCWindow}},
		{LBCAlg, []Phase{PhaseLBCNN, PhaseLBCProbe}},
	}
	for _, tc := range tests {
		var rec FlightRecord
		res, err := eng.Skyline(Query{Points: pts, Algorithm: tc.alg, Trace: true,
			Tracer: recordSink(func(r FlightRecord) { rec = r })})
		if err != nil {
			t.Fatalf("%v: %v", tc.alg, err)
		}
		var spans []obs.Span
		for _, s := range rec.Spans {
			if isPhase(s.Name) {
				spans = append(spans, s)
			}
		}
		if len(spans) == 0 || len(spans) >= obs.MaxLeafSpans {
			t.Fatalf("%v: %d phase spans", tc.alg, len(spans))
		}
		for i := 1; i < len(spans); i++ {
			if prev := spans[i-1]; spans[i].Start.Before(prev.Start.Add(prev.Dur)) {
				t.Errorf("%v: span %d (%s) starts before span %d (%s) ends", tc.alg, i, spans[i].Name, i-1, prev.Name)
			}
		}
		if got := Phase(spans[0].Name); got != tc.phases[0] {
			t.Errorf("%v: first phase %q, want %q", tc.alg, got, tc.phases[0])
		}

		var want []PhaseStat
		at := map[Phase]int{}
		for _, s := range spans {
			i, ok := at[Phase(s.Name)]
			if !ok {
				i = len(want)
				at[Phase(s.Name)] = i
				want = append(want, PhaseStat{Phase: Phase(s.Name)})
			}
			want[i].Count++
			want[i].Duration += s.Dur
			want[i].NetworkPages += s.Pages
			want[i].NodesExpanded += s.Nodes
		}
		var order []Phase
		for _, ps := range want {
			order = append(order, ps.Phase)
		}
		if !reflect.DeepEqual(order, tc.phases) {
			t.Errorf("%v: phases entered in order %v, want %v", tc.alg, order, tc.phases)
		}
		if !reflect.DeepEqual(res.Stats.Phases, want) {
			t.Errorf("%v: Stats.Phases\n%+v\nis not the per-phase sum of the spans\n%+v", tc.alg, res.Stats.Phases, want)
		}
		if !reflect.DeepEqual(rec.Phases, res.Stats.Phases) {
			t.Errorf("%v: the record's phases %+v differ from Stats.Phases %+v", tc.alg, rec.Phases, res.Stats.Phases)
		}

		// The breakdown stays within the query's totals, and every
		// settlement, CE's refiners' included, happens inside a phase.
		var pages int64
		var dur time.Duration
		nodes := 0
		for _, ps := range res.Stats.Phases {
			pages += ps.NetworkPages
			dur += ps.Duration
			nodes += ps.NodesExpanded
		}
		if pages > res.Stats.NetworkPages {
			t.Errorf("%v: phases account for %d pages, query faulted %d", tc.alg, pages, res.Stats.NetworkPages)
		}
		if nodes != res.Stats.NodesExpanded {
			t.Errorf("%v: phases account for %d settlements, query made %d", tc.alg, nodes, res.Stats.NodesExpanded)
		}
		if cpu := res.Stats.Total - res.Stats.IOTime; dur > cpu {
			t.Errorf("%v: phase durations sum to %v, query CPU time %v", tc.alg, dur, cpu)
		}
	}
}

// TestTracerEquivalence is the acceptance fuzz: for a mixed workload,
// a causal trace, a SlogTracer and phase collection all at once must not
// change the skyline or any deterministic counter, and without any of
// them the breakdown must stay nil.
func TestTracerEquivalence(t *testing.T) {
	eng, n := poolTestEngine(t)
	// Deterministic counters only: the measured wall times differ run to
	// run, and the breakdown exists only on the traced side.
	norm := func(s Stats) Stats {
		s.Total, s.Initial = 0, 0
		s.Phases = nil
		return s
	}
	sink := NewSlogTracer(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})), time.Nanosecond)
	for i, q := range mixedQueries(n) {
		base, err := eng.Skyline(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if base.Stats.Phases != nil {
			t.Errorf("query %d: Phases populated without tracer or CollectPhases", i)
		}
		q.Trace = true
		q.Tracer = sink
		q.CollectPhases = true
		traced, err := eng.Skyline(q)
		if err != nil {
			t.Fatalf("query %d traced: %v", i, err)
		}
		if resultKey(t, base) != resultKey(t, traced) {
			t.Errorf("query %d: tracer changed the skyline", i)
		}
		if got, want := norm(traced.Stats), norm(base.Stats); !reflect.DeepEqual(got, want) {
			t.Errorf("query %d: tracer changed the counters:\n got %+v\nwant %+v", i, got, want)
		}
		if len(traced.Stats.Phases) == 0 {
			t.Errorf("query %d: CollectPhases produced no breakdown", i)
		}
	}
	// CollectPhases alone, a Tracer alone, and the iterator path each
	// yield the breakdown too.
	pts := n.GenerateQueryPoints(3, 0.1, 5)
	for name, q := range map[string]Query{
		"CollectPhases": {Points: pts, Algorithm: LBCAlg, CollectPhases: true},
		"Tracer":        {Points: pts, Algorithm: LBCAlg, Tracer: sink},
	} {
		res, err := eng.Skyline(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stats.Phases) == 0 {
			t.Errorf("%s alone produced no breakdown", name)
		}
	}
	it, err := eng.SkylineIterContext(context.Background(), Query{Points: pts, CollectPhases: true})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok, err := it.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	if len(it.Stats().Phases) == 0 {
		t.Error("iterator CollectPhases produced no breakdown")
	}
}

// logLines decodes a JSON slog stream into one map per record.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	dec := json.NewDecoder(buf)
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("log stream: %v", err)
		}
		out = append(out, m)
	}
	return out
}

// TestSlogTracer drives the ready-made sink end to end: the per-span
// Debug records of a traced query, the Info summary, and a slow-query
// Warn line whose trace_id resolves through Engine.TraceRecord to a
// record whose phases its groups repeat exactly.
func TestSlogTracer(t *testing.T) {
	eng, n := flightTestEngine(t)
	pts := n.GenerateQueryPoints(3, 0.1, 5)
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	// slow=1ns: every query trips the slow-query log.
	if _, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg, Trace: true, Tracer: NewSlogTracer(log, time.Nanosecond)}); err != nil {
		t.Fatal(err)
	}
	byMsg := map[string][]map[string]any{}
	for _, l := range logLines(t, &buf) {
		msg, _ := l["msg"].(string)
		byMsg[msg] = append(byMsg[msg], l)
	}
	done, slow := byMsg["skyline query done"], byMsg["slow skyline query"]
	if len(done) != 1 || len(slow) != 1 {
		t.Fatalf("%d Info and %d Warn records, want one each", len(done), len(slow))
	}
	w := slow[0]
	if w["level"] != "WARN" || w["alg"] != "LBC" || w["outcome"] != obs.OutcomeServed || w["err"] != nil {
		t.Errorf("slow-query record %v", w)
	}
	id, _ := w["trace_id"].(string)
	rec, ok := eng.TraceRecord(id)
	if !ok {
		t.Fatalf("slow-query trace_id %q does not resolve", id)
	}
	if done[0]["trace_id"] != id {
		t.Errorf("Info record names trace %v, Warn %q", done[0]["trace_id"], id)
	}
	if got := len(byMsg["skyline query span"]); got != len(rec.Spans) {
		t.Errorf("%d span records for %d spans", got, len(rec.Spans))
	}
	if len(rec.Phases) == 0 {
		t.Fatal("record carries no phases")
	}
	for _, ps := range rec.Phases {
		g, ok := w[string(ps.Phase)].(map[string]any)
		if !ok {
			t.Errorf("slow-query record has no %s group: %v", ps.Phase, w)
			continue
		}
		got := PhaseStat{Phase: ps.Phase, Count: int(g["count"].(float64)), Duration: time.Duration(g["dur"].(float64)),
			NetworkPages: int64(g["pages"].(float64)), NodesExpanded: int(g["nodes"].(float64))}
		if got != ps {
			t.Errorf("slow-query group %+v, record's phase %+v", got, ps)
		}
	}

	// Under the threshold nothing is slow; the Info summary still appears,
	// and no span is formatted at Info level.
	buf.Reset()
	infoLog := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	if _, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg, Trace: true, Tracer: NewSlogTracer(infoLog, time.Hour)}); err != nil {
		t.Fatal(err)
	}
	lines := logLines(t, &buf)
	if len(lines) != 1 || lines[0]["msg"] != "skyline query done" {
		t.Errorf("hour threshold at Info logged %v, want the summary alone", lines)
	}
}

// TestSlogTracerCancelledSubmission: a pool submission cancelled before it
// reaches a worker still ends in the sink, as outcome cancelled with its
// error.
func TestSlogTracerCancelledSubmission(t *testing.T) {
	eng, n := poolTestEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var buf bytes.Buffer
	sink := NewSlogTracer(slog.New(slog.NewJSONHandler(&buf, nil)), time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Skyline(ctx, Query{Points: n.GenerateQueryPoints(2, 0.1, 3), Tracer: sink}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	lines := logLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("%d records, want 1: %v", len(lines), lines)
	}
	if l := lines[0]; l["msg"] != "skyline query done" || l["outcome"] != obs.OutcomeCancelled || l["err"] != context.Canceled.Error() {
		t.Errorf("cancelled submission logged as %v", l)
	}
}

// TestStatsParity is the reflection parity test: every exported
// core.Metrics field must be mapped by statsFromMetrics onto the
// same-named Stats field — identically, or through the documented
// transform for the derived time fields.
func TestStatsParity(t *testing.T) {
	var m core.Metrics
	mv := reflect.ValueOf(&m).Elem()
	mt := mv.Type()
	for i := 0; i < mt.NumField(); i++ {
		if !mt.Field(i).IsExported() {
			continue
		}
		f := mv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + i)) // distinct sentinel per field
		case reflect.Slice:
			f.Set(reflect.ValueOf([]obs.PhaseStat{{Phase: obs.PhaseLBCNN, Count: 1000 + i}}))
		default:
			t.Fatalf("core.Metrics.%s has kind %s: extend TestStatsParity", mt.Field(i).Name, f.Kind())
		}
	}
	s := statsFromMetrics(m)
	sv := reflect.ValueOf(s)
	st := sv.Type()
	statsFields := make(map[string]reflect.Value, st.NumField())
	for i := 0; i < st.NumField(); i++ {
		statsFields[st.Field(i).Name] = sv.Field(i)
	}
	// Derived fields carry a transform instead of the identity: the public
	// response times fold in the simulated disk latency.
	transformed := map[string]any{
		"Total":   m.ResponseTime(),
		"Initial": m.InitialResponseTime(),
	}
	for i := 0; i < mt.NumField(); i++ {
		if !mt.Field(i).IsExported() {
			continue
		}
		name := mt.Field(i).Name
		got, ok := statsFields[name]
		if !ok {
			t.Errorf("core.Metrics.%s has no Stats counterpart: extend statsFromMetrics and Stats", name)
			continue
		}
		want := mv.Field(i).Interface()
		if w, ok := transformed[name]; ok {
			want = w
		}
		if !reflect.DeepEqual(got.Interface(), want) {
			t.Errorf("Stats.%s = %v, want %v: field dropped in statsFromMetrics?", name, got.Interface(), want)
		}
	}
	// Reverse direction: a Stats field with no core.Metrics counterpart is
	// dead — statsFromMetrics can never populate it — so adding one must
	// fail here until the underlying counter exists.
	metricsFields := make(map[string]bool, mt.NumField())
	for i := 0; i < mt.NumField(); i++ {
		metricsFields[mt.Field(i).Name] = true
	}
	for i := 0; i < st.NumField(); i++ {
		if name := st.Field(i).Name; !metricsFields[name] {
			t.Errorf("Stats.%s has no core.Metrics counterpart: dead field", name)
		}
	}
}

// TestPoolMetricsReconcile is the instrumentation acceptance test: under
// churn with aggressive deadlines, saturation and iterator traffic, the
// outcome counters must reconcile exactly, no admission token or worker
// may leak, and the pool must keep serving. Run it under -race.
func TestPoolMetricsReconcile(t *testing.T) {
	eng, n := poolTestEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	queries := mixedQueries(n)
	pts := n.GenerateQueryPoints(3, 0.1, 5)

	const goroutines, rounds = 8, 9
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := queries[(g*rounds+r)%len(queries)]
				switch r % 3 {
				case 0:
					pool.Skyline(context.Background(), q)
				case 1:
					// Deadlines from 1µs to ~1ms: some expire while waiting
					// for a worker, some mid-expansion, some never.
					d := time.Duration(1+g*137+r*29) * time.Microsecond
					ctx, cancel := context.WithTimeout(context.Background(), d)
					pool.Skyline(ctx, q)
					cancel()
				case 2:
					if it, err := pool.SkylineIter(context.Background(), q); err == nil {
						it.Next()
						it.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()

	m := pool.PoolMetrics()
	if want := uint64(goroutines * rounds); m.Submitted != want {
		t.Errorf("Submitted = %d, want %d", m.Submitted, want)
	}
	if sum := m.Served + m.Saturated + m.Cancelled + m.Closed; m.Submitted != sum {
		t.Errorf("outcomes do not reconcile: submitted %d != served %d + saturated %d + cancelled %d + closed %d",
			m.Submitted, m.Served, m.Saturated, m.Cancelled, m.Closed)
	}
	if m.InFlight != 0 || m.Waiting != 0 {
		t.Errorf("gauges not at rest: InFlight = %d, Waiting = %d", m.InFlight, m.Waiting)
	}
	if leaked := len(pool.queue); leaked != 0 {
		t.Errorf("%d admission tokens leaked after churn", leaked)
	}
	if idle := len(pool.workers); idle != pool.Workers() {
		t.Errorf("%d of %d workers idle after churn", idle, pool.Workers())
	}
	if m.QueueWait.Count == 0 {
		t.Error("queue-wait histogram recorded nothing")
	}
	if m.QueueWait.Count != m.Served+m.Cancelled {
		// Every served submission checked out a worker; cancelled ones may
		// or may not have. The histogram can therefore not exceed the two.
		if m.QueueWait.Count > m.Served+m.Cancelled {
			t.Errorf("QueueWait.Count = %d > served %d + cancelled %d",
				m.QueueWait.Count, m.Served, m.Cancelled)
		}
	}

	var workerQueries uint64
	var gets, misses int64
	for _, ws := range m.WorkerStats {
		if hr := ws.HitRate(); hr < 0 || hr > 1 {
			t.Errorf("worker %d: hit rate %v out of [0,1]", ws.Worker, hr)
		}
		if ws.BufferMisses > ws.BufferGets {
			t.Errorf("worker %d: misses %d > gets %d", ws.Worker, ws.BufferMisses, ws.BufferGets)
		}
		workerQueries += ws.Queries
		gets += ws.BufferGets
		misses += ws.BufferMisses
	}
	if workerQueries == 0 || gets == 0 {
		t.Errorf("worker stats empty after churn: queries %d, gets %d", workerQueries, gets)
	}

	// Still serving, and the new submission reconciles too.
	if _, err := pool.Skyline(context.Background(), Query{Points: pts, Algorithm: LBCAlg}); err != nil {
		t.Fatalf("pool broken after churn: %v", err)
	}

	// Submissions after Close land in the closed bucket and keep the
	// invariant intact.
	pool.Close()
	if _, err := pool.Skyline(context.Background(), Query{Points: pts}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
	m = pool.PoolMetrics()
	if m.Closed == 0 {
		t.Error("Closed = 0 after a post-close submission")
	}
	if sum := m.Served + m.Saturated + m.Cancelled + m.Closed; m.Submitted != sum {
		t.Errorf("outcomes do not reconcile after close: %d != %d", m.Submitted, sum)
	}
}

// TestPoolMetricsHandler scrapes the Prometheus endpoint and the
// PoolMetrics snapshot after a known workload.
func TestPoolMetricsHandler(t *testing.T) {
	eng, n := poolTestEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pts := n.GenerateQueryPoints(2, 0.1, 3)
	if _, err := pool.Skyline(context.Background(), Query{Points: pts, Algorithm: LBCAlg}); err != nil {
		t.Fatal(err)
	}

	// The in-flight gauge tracks a checked-out worker.
	it, err := pool.SkylineIter(context.Background(), Query{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.PoolMetrics().InFlight; got != 1 {
		t.Errorf("InFlight with held iterator = %d, want 1", got)
	}
	it.Close()

	srv := httptest.NewServer(pool.MetricsHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	for _, want := range []string{
		"# TYPE roadskyline_pool_workers gauge",
		"roadskyline_pool_workers 1",
		"roadskyline_pool_in_flight 0",
		"roadskyline_pool_submitted_total 2",
		`roadskyline_pool_queries_total{outcome="served"} 2`,
		"# TYPE roadskyline_pool_queue_wait_seconds histogram",
		`roadskyline_pool_queue_wait_seconds_bucket{le="+Inf"} 2`,
		"roadskyline_pool_queue_wait_seconds_count 2",
		`roadskyline_pool_worker_queries_total{worker="0"} 2`,
		// The distance-cache families are always exposed; this engine has
		// no cache, so the counters read zero.
		"# TYPE roadskyline_distcache_lookups_total counter",
		`roadskyline_distcache_lookups_total{result="hit"} 0`,
		`roadskyline_distcache_lookups_total{result="miss"} 0`,
		"roadskyline_distcache_stores_total 0",
		"roadskyline_distcache_evictions_total 0",
		"roadskyline_distcache_entries 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	// The snapshot behind the exposition carries its bucket bounds.
	snap := pool.PoolMetrics()
	if snap.Submitted != 2 || snap.Served != 2 || snap.Workers != 1 {
		t.Errorf("snapshot = %+v, want 2 submitted/served on 1 worker", snap)
	}
	if qw := snap.QueueWait; len(qw.Bounds) == 0 || len(qw.Bounds) != len(qw.Buckets) || qw.Count != 2 {
		t.Errorf("queue wait histogram = %+v, want one bucket per bound and 2 observations", qw)
	}
}

// BenchmarkLBCTracerOverhead quantifies the tracing tax on the LBC hot
// path: `off` is the untraced baseline the zero-overhead contract is
// measured against, `phases` collects the breakdown, and `serve` carries
// what skylineserve attaches to every request — a causal trace and a
// SlogTracer over a logger that discards its Info summary.
func BenchmarkLBCTracerOverhead(b *testing.B) {
	n, err := Generate(NetworkSpec{Name: "bench", Nodes: 2000, Edges: 2500,
		Jitter: 0.3, MaxStretch: 0.15, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(n, n.GenerateObjects(0.5, 0, 7), EngineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	qp := n.GenerateQueryPoints(4, 0.1, 9)
	run := func(b *testing.B, q func() Query) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Skyline(q()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, func() Query { return Query{Points: qp, Algorithm: LBCAlg} })
	})
	b.Run("phases", func(b *testing.B) {
		run(b, func() Query { return Query{Points: qp, Algorithm: LBCAlg, CollectPhases: true} })
	})
	sink := NewSlogTracer(slog.New(slog.NewTextHandler(io.Discard, nil)), time.Second)
	b.Run("serve", func(b *testing.B) {
		run(b, func() Query { return Query{Points: qp, Algorithm: LBCAlg, Trace: true, Tracer: sink} })
	})
}
