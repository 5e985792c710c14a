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

// checkEventStream validates the structural invariants every trace must
// satisfy: QueryStart first, QueryEnd last, phase spans balanced and
// unnested, progress ticks non-decreasing, one Point event per skyline
// point in ordinal order.
func checkEventStream(t *testing.T, alg Algorithm, events []obs.Event, numResults int) {
	t.Helper()
	if len(events) < 2 {
		t.Fatalf("%v: only %d events recorded", alg, len(events))
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != obs.KindQueryStart || first.Alg != alg.String() {
		t.Errorf("%v: first event = %v/%q, want query.start/%q", alg, first.Kind, first.Alg, alg.String())
	}
	if last.Kind != obs.KindQueryEnd {
		t.Errorf("%v: last event = %v, want query.end", alg, last.Kind)
	}
	open := obs.Phase("")
	lastProgress := 0
	points := 0
	for i, e := range events {
		switch e.Kind {
		case obs.KindQueryStart:
			if i != 0 {
				t.Errorf("%v: query.start at index %d", alg, i)
			}
		case obs.KindQueryEnd:
			if i != len(events)-1 {
				t.Errorf("%v: query.end at index %d of %d", alg, i, len(events))
			}
		case obs.KindPhaseStart:
			if open != "" {
				t.Errorf("%v: phase %q started while %q still open", alg, e.Phase, open)
			}
			open = e.Phase
		case obs.KindPhaseEnd:
			if e.Phase != open {
				t.Errorf("%v: phase %q ended while %q open", alg, e.Phase, open)
			}
			open = ""
		case obs.KindProgress:
			if e.N < lastProgress {
				t.Errorf("%v: progress went backwards: %d after %d", alg, e.N, lastProgress)
			}
			lastProgress = e.N
		case obs.KindPoint:
			if e.N != points {
				t.Errorf("%v: point ordinal %d, want %d", alg, e.N, points)
			}
			points++
		}
	}
	if open != "" {
		t.Errorf("%v: phase %q never ended", alg, open)
	}
	if points != numResults {
		t.Errorf("%v: %d point events for %d skyline points", alg, points, numResults)
	}
}

// TestTracerPhaseSequences is the golden phase-sequence test: each
// algorithm must move through its documented phases in the documented
// order, and the breakdown surfaced in Stats.Phases must agree with the
// events the tracer saw.
func TestTracerPhaseSequences(t *testing.T) {
	eng, n := poolTestEngine(t)
	pts := n.GenerateQueryPoints(3, 0.1, 5)

	tests := []struct {
		alg    Algorithm
		first  Phase
		phases []Phase // exact first-entered order expected in Stats.Phases
	}{
		{CEAlg, PhaseCEFilter, []Phase{PhaseCEFilter, PhaseCERefine}},
		{EDCAlg, PhaseEDCSeed, []Phase{PhaseEDCSeed, PhaseEDCVerify, PhaseEDCWindow}},
		{LBCAlg, PhaseLBCNN, []Phase{PhaseLBCNN, PhaseLBCProbe}},
	}
	for _, tc := range tests {
		rec := &obs.Recorder{}
		res, err := eng.Skyline(Query{Points: pts, Algorithm: tc.alg, Tracer: rec})
		if err != nil {
			t.Fatalf("%v: %v", tc.alg, err)
		}
		checkEventStream(t, tc.alg, rec.Events, len(res.Points))

		if got := rec.Signature(); !strings.HasPrefix(got, string(tc.first)) {
			t.Errorf("%v: signature %q does not start with %q", tc.alg, got, tc.first)
		}
		var gotOrder []Phase
		for _, ps := range res.Stats.Phases {
			gotOrder = append(gotOrder, ps.Phase)
		}
		if !reflect.DeepEqual(gotOrder, tc.phases) {
			t.Errorf("%v: Stats.Phases order = %v, want %v", tc.alg, gotOrder, tc.phases)
		}

		// The breakdown must agree with the tracer's phase.end events and
		// stay within the query's totals.
		sums := map[Phase]*PhaseStat{}
		for _, e := range rec.Events {
			if e.Kind != obs.KindPhaseEnd {
				continue
			}
			ps := sums[e.Phase]
			if ps == nil {
				ps = &PhaseStat{Phase: e.Phase}
				sums[e.Phase] = ps
			}
			ps.Count++
			ps.Duration += e.D
			ps.NetworkPages += e.Pages
			ps.NodesExpanded += e.N
		}
		var pages int64
		var dur time.Duration
		for _, ps := range res.Stats.Phases {
			want := sums[ps.Phase]
			if want == nil {
				t.Errorf("%v: phase %q in Stats.Phases but never ended in the trace", tc.alg, ps.Phase)
				continue
			}
			if ps.Count != want.Count || ps.Duration != want.Duration ||
				ps.NetworkPages != want.NetworkPages || ps.NodesExpanded != want.NodesExpanded {
				t.Errorf("%v: phase %q breakdown %+v disagrees with trace %+v", tc.alg, ps.Phase, ps, *want)
			}
			pages += ps.NetworkPages
			dur += ps.Duration
		}
		if pages > res.Stats.NetworkPages {
			t.Errorf("%v: phases account for %d pages, query faulted %d", tc.alg, pages, res.Stats.NetworkPages)
		}
		if cpu := res.Stats.Total - res.Stats.IOTime; dur > cpu {
			t.Errorf("%v: phase durations sum to %v, query CPU time %v", tc.alg, dur, cpu)
		}
	}
}

// TestTracerEquivalence is the acceptance fuzz: for a mixed workload,
// attaching a tracer (and collecting phases) must not change the skyline
// or any deterministic counter, and without either the breakdown must
// stay nil.
func TestTracerEquivalence(t *testing.T) {
	eng, n := poolTestEngine(t)
	// Deterministic counters only: the measured wall times differ run to
	// run, and the breakdown exists only on the traced side.
	norm := func(s Stats) Stats {
		s.Total, s.Initial = 0, 0
		s.Phases = nil
		return s
	}
	for i, q := range mixedQueries(n) {
		base, err := eng.Skyline(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if base.Stats.Phases != nil {
			t.Errorf("query %d: Phases populated without tracer or CollectPhases", i)
		}
		q.Tracer = &obs.Recorder{}
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
	// CollectPhases alone (no tracer) also yields the breakdown — and the
	// iterator path supports both knobs too.
	pts := n.GenerateQueryPoints(3, 0.1, 5)
	res, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg, CollectPhases: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Phases) == 0 {
		t.Error("CollectPhases without tracer produced no breakdown")
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

// TestSlogTracer drives the ready-made tracer end to end: debug event
// records, the end-of-query summary, and the slow-query warning with the
// phase breakdown.
func TestSlogTracer(t *testing.T) {
	eng, n := poolTestEngine(t)
	pts := n.GenerateQueryPoints(3, 0.1, 5)
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	// slow=1ns: every query trips the slow-query log.
	_, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg, Tracer: NewSlogTracer(log, time.Nanosecond)})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"skyline query start", "phase start", "phase end",
		"skyline query done", "slow skyline query",
		string(PhaseLBCNN), string(PhaseLBCProbe), "alg=LBC",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slog output missing %q", want)
		}
	}
	// Above the threshold nothing is slow; Info summary still appears.
	buf.Reset()
	infoLog := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	if _, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg, Tracer: NewSlogTracer(infoLog, time.Hour)}); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if strings.Contains(out, "slow skyline query") {
		t.Error("hour-threshold query logged as slow")
	}
	if !strings.Contains(out, "skyline query done") {
		t.Error("Info summary missing")
	}
	if strings.Contains(out, "phase start") {
		t.Error("debug phase records emitted at Info level")
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

// TestPoolMetricsHandler scrapes the Prometheus endpoint and the expvar
// snapshot after a known workload.
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

	// The expvar func serves the same snapshot as JSON.
	var snap PoolMetrics
	if err := json.Unmarshal([]byte(pool.ExpvarFunc().String()), &snap); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	if snap.Submitted != 2 || snap.Served != 2 || snap.Workers != 1 {
		t.Errorf("expvar snapshot = %+v, want 2 submitted/served on 1 worker", snap)
	}
}

// BenchmarkLBCTracerOverhead quantifies the tracing tax on the LBC hot
// path: `off` is the nil-tracer baseline the zero-overhead contract is
// measured against, `phases` collects the breakdown without a tracer, and
// `recorder` pays for full event recording.
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
	b.Run("recorder", func(b *testing.B) {
		run(b, func() Query { return Query{Points: qp, Algorithm: LBCAlg, Tracer: &obs.Recorder{}} })
	})
}
