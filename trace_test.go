package roadskyline

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roadskyline/internal/obs"
)

// tracedEngine builds an engine with wavefront sharing, a flight recorder
// and warm caches — the configuration under which causal traces carry
// every span kind.
func (tr *fuzzTrial) tracedEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(tr.n, tr.objs, EngineConfig{
		WarmCache:       true,
		ShareWavefronts: true,
		FlightRecorder:  FlightRecorderConfig{Size: 64},
	})
	if err != nil {
		t.Fatalf("seed %d: traced engine: %v", tr.seed, err)
	}
	return eng
}

// checkSpanSum asserts the trace's leaf spans decompose the recorded
// total response time: their sum must cover at least half of it and not
// exceed it by more than a scheduling-tolerance margin. (Exact equality
// is impossible: searcher seeding and inter-phase gaps are uncovered,
// and span clocks are read at slightly different instants than the
// metrics clock.)
func checkSpanSum(t *testing.T, rec FlightRecord) {
	t.Helper()
	sum := obs.SumSpans(rec.Spans)
	lo := rec.Total/2 - 2*time.Millisecond
	hi := rec.Total + rec.Total/4 + 5*time.Millisecond
	if sum < lo || sum > hi {
		t.Errorf("trace %s: leaf spans sum to %v, want within [%v, %v] of total %v",
			rec.TraceID, sum, lo, hi, rec.Total)
	}
	root, ok := obs.FindSpan(rec.Spans, obs.SpanQuery)
	if !ok {
		t.Fatalf("trace %s: no root query span", rec.TraceID)
	}
	if root.Dur < rec.Total-rec.Total/4-5*time.Millisecond {
		t.Errorf("trace %s: root span %v shorter than recorded total %v", rec.TraceID, root.Dur, rec.Total)
	}
}

// TestTraceSpansDecomposeTotal runs one traced query per algorithm on a
// quiet engine and checks the contract of the span decomposition: a
// trace ID on the result, a retained record carrying the spans, phase
// spans present, and durations summing (within tolerance) to the
// recorded response time.
func TestTraceSpansDecomposeTotal(t *testing.T) {
	tr := newFuzzTrial(t, 4242)
	eng := tr.tracedEngine(t)
	for _, alg := range []Algorithm{CEAlg, EDCAlg, LBCAlg} {
		res, err := eng.Skyline(Query{Points: tr.pts, Algorithm: alg, UseAttrs: tr.use, Trace: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.TraceID == "" {
			t.Fatalf("%v: result carries no trace ID", alg)
		}
		if _, ok := obs.ParseTraceID(res.TraceID); !ok {
			t.Fatalf("%v: trace ID %q is not canonical", alg, res.TraceID)
		}
		rec, ok := eng.TraceRecord(res.TraceID)
		if !ok {
			t.Fatalf("%v: recorder retained no record for %s", alg, res.TraceID)
		}
		if rec.Alg != alg.String() {
			t.Errorf("record for %s has alg %q, want %q", res.TraceID, rec.Alg, alg)
		}
		if len(rec.Spans) == 0 {
			t.Fatalf("%v: record %s has no spans", alg, res.TraceID)
		}
		phases := 0
		for _, s := range rec.Spans {
			if strings.Contains(s.Name, ".") && s.Name != obs.SpanQueueWait &&
				s.Name != obs.SpanFlightWait && s.Name != obs.SpanRestore && s.Name != obs.SpanIO {
				phases++
			}
		}
		if phases == 0 {
			t.Errorf("%v: trace %s has no phase spans: %+v", alg, res.TraceID, rec.Spans)
		}
		if rec.NetworkPages > 0 {
			if _, ok := obs.FindSpan(rec.Spans, obs.SpanIO); !ok {
				t.Errorf("%v: trace %s faulted pages but has no %s span", alg, res.TraceID, obs.SpanIO)
			}
		}
		checkSpanSum(t, rec)
	}
	if left := eng.InflightQueries(); len(left) != 0 {
		t.Errorf("in-flight view still holds %d queries after completion: %+v", len(left), left)
	}
}

// TestUntracedQueriesStayInvisible pins the zero-overhead default: a
// query without Query.Trace gets no trace ID, no spans on its record and
// no in-flight entry.
func TestUntracedQueriesStayInvisible(t *testing.T) {
	tr := newFuzzTrial(t, 4243)
	eng := tr.tracedEngine(t)
	res, err := eng.Skyline(Query{Points: tr.pts, Algorithm: LBCAlg, UseAttrs: tr.use})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" {
		t.Errorf("untraced query got trace ID %q", res.TraceID)
	}
	recs := eng.FlightRecords()
	if len(recs) != 1 {
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	if recs[0].TraceID != "" || len(recs[0].Spans) != 0 {
		t.Errorf("untraced record carries trace data: id=%q spans=%d", recs[0].TraceID, len(recs[0].Spans))
	}
}

// waitForWaitRoles polls the in-flight view until want of its queries show
// role wait together with the leader they wait on, and returns that view.
// distcache counts a waiter before its trace takes the role (tr.SetWaiting
// in core's query.go), and SetWaiting stores the leader last, so a view that
// names the leader shows the whole of it.
func waitForWaitRoles(t *testing.T, eng *Engine, want int) []InflightQuery {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		live := eng.InflightQueries()
		waiting := 0
		for _, q := range live {
			if q.Role == obs.RoleWait && q.WaitingOn != "" {
				waiting++
			}
		}
		if waiting == want {
			return live
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d queries in role %q, have %d: %+v", want, obs.RoleWait, waiting, live)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestWavefrontTraceWaitsOnLeader: K identical CE queries hit one point
// concurrently on a sharing engine, the leader held at its gate until
// every waiter is parked. Afterward each waiter's trace must carry a
// flight.wait span naming the *leader's* trace ID, the wait must cover the
// gate hold, the store must count one lead and K-1 shares, and the live
// in-flight view observed during the stall must show the lead/wait roles.
func TestWavefrontTraceWaitsOnLeader(t *testing.T) {
	tr := newFuzzTrial(t, 9901)
	eng := tr.tracedEngine(t)
	pts := tr.pts[:1]
	const K = 5
	const hold = 60 * time.Millisecond

	gate := leadGate(eng)
	results := make([]*Result, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		results[0], errs[0] = eng.Clone().SkylineContext(gate, Query{Points: pts, Algorithm: CEAlg, Trace: true})
	}()
	gate.wait(t)
	for i := 1; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Clone().Skyline(Query{Points: pts, Algorithm: CEAlg, Trace: true})
		}(i)
	}
	waitForWaiting(t, eng, K-1)

	// All K queries are live and parked: the leader at its gate holding
	// the flight, the subscribers blocked on it. Snapshot the live view
	// once it shows them so.
	live := waitForWaitRoles(t, eng, K-1)
	if len(live) != K {
		t.Errorf("in-flight view shows %d queries, want %d: %+v", len(live), K, live)
	}
	var liveLeader string
	for _, q := range live {
		if q.Role == obs.RoleLead {
			liveLeader = q.TraceID
		}
	}
	if liveLeader == "" {
		t.Errorf("no in-flight query in role %q: %+v", obs.RoleLead, live)
	}
	waiters := 0
	for _, q := range live {
		if q.Role != obs.RoleWait {
			continue
		}
		waiters++
		if q.WaitingOn != liveLeader {
			t.Errorf("waiter %s blocked on %q, want leader %q", q.TraceID, q.WaitingOn, liveLeader)
		}
		if q.FlightKey == "" {
			t.Errorf("waiter %s shows no flight key", q.TraceID)
		}
	}
	if waiters != K-1 {
		t.Errorf("in-flight view shows %d waiters, want %d: %+v", waiters, K-1, live)
	}

	time.Sleep(hold) // make the flight wait dominate the subscribers' traces
	close(gate.release)
	wg.Wait()

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if results[i].TraceID == "" {
			t.Fatalf("query %d: no trace ID", i)
		}
	}
	leaderID := results[0].TraceID
	if liveLeader != leaderID {
		t.Errorf("live view named leader %q, results name %q", liveLeader, leaderID)
	}

	// Each subscriber's trace names the leader in its flight.wait span.
	for i := 1; i < K; i++ {
		rec, ok := eng.TraceRecord(results[i].TraceID)
		if !ok {
			t.Fatalf("subscriber %d: no record for %s", i, results[i].TraceID)
		}
		wait, ok := obs.FindSpan(rec.Spans, obs.SpanFlightWait)
		if !ok {
			t.Fatalf("subscriber %d: trace %s has no %s span: %+v",
				i, rec.TraceID, obs.SpanFlightWait, rec.Spans)
		}
		if wait.Ref != leaderID {
			t.Errorf("subscriber %d: flight.wait names leader %q, want %q", i, wait.Ref, leaderID)
		}
		if wait.Key == "" {
			t.Errorf("subscriber %d: flight.wait has no key", i)
		}
		if wait.Dur < hold {
			t.Errorf("subscriber %d: flight.wait lasted %v, want >= gate hold %v", i, wait.Dur, hold)
		}
		if _, ok := obs.FindSpan(rec.Spans, obs.SpanRestore); !ok {
			t.Errorf("subscriber %d: trace %s has no %s span", i, rec.TraceID, obs.SpanRestore)
		}
		checkSpanSum(t, rec)
	}
	// The leader's trace has no flight wait: it never blocked.
	leadRec, ok := eng.TraceRecord(leaderID)
	if !ok {
		t.Fatalf("no record for leader %s", leaderID)
	}
	if _, found := obs.FindSpan(leadRec.Spans, obs.SpanFlightWait); found {
		t.Errorf("leader %s has a flight.wait span", leaderID)
	}

	// The store counted the same flight: one lead, K-1 shares, nobody
	// left waiting.
	if ws := eng.WavefrontStats(); ws.Leads != 1 || ws.Shares != K-1 || ws.Waiting != 0 {
		t.Errorf("wavefront stats %+v, want 1 lead and %d shares", ws, K-1)
	}
}

// TestTraceEventExport checks the Chrome trace-event JSON export round
// trip on a real traced query: the file parses, carries one complete
// event per span, and the flight.wait event names the leader trace.
func TestTraceEventExport(t *testing.T) {
	tr := newFuzzTrial(t, 4244)
	eng := tr.tracedEngine(t)
	res, err := eng.Skyline(Query{Points: tr.pts, Algorithm: CEAlg, UseAttrs: tr.use, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := eng.TraceRecord(res.TraceID)
	if !ok {
		t.Fatalf("no record for %s", res.TraceID)
	}
	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var file struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", file.DisplayTimeUnit)
	}
	var complete, meta int
	var sawRoot bool
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "M":
			meta++
		}
		if ev.Name == obs.SpanQuery && ev.Ph == "X" {
			sawRoot = true
			if ev.Args["trace_id"] != res.TraceID {
				t.Errorf("root event trace_id %v, want %s", ev.Args["trace_id"], res.TraceID)
			}
		}
	}
	if complete != len(rec.Spans) {
		t.Errorf("export has %d complete events for %d spans", complete, len(rec.Spans))
	}
	if meta == 0 || !sawRoot {
		t.Errorf("export lacks metadata events (%d) or the root query event (%t)", meta, sawRoot)
	}

	// Exporting an untraced record must fail, not emit an empty file.
	if err := obs.WriteTraceEvents(io.Discard, FlightRecord{}); err == nil {
		t.Errorf("exporting a span-less record succeeded")
	}
}

// TestConcurrentScrapesRace drives pool traffic while hammering every
// observability endpoint — /metrics, /debug/queries, /debug/trace,
// /debug/inflight — from concurrent scrapers, every query logging through
// one shared SlogTracer as skylineserve's do. Run under -race it pins that
// live progress cells, the recorder and the sink are safe to use
// mid-query, and the sink must see every submission exactly once.
func TestConcurrentScrapesRace(t *testing.T) {
	tr := newFuzzTrial(t, 4245)
	eng := tr.tracedEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	handlers := map[string]http.Handler{
		"/metrics":        pool.MetricsHandler(),
		"/debug/queries":  pool.FlightHandler(),
		"/debug/trace":    pool.TraceHandler(),
		"/debug/inflight": pool.InflightHandler(),
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for path, h := range handlers {
		scrapers.Add(1)
		go func(path string, h http.Handler) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
				if rw.Code != 200 {
					t.Errorf("%s: status %d: %s", path, rw.Code, rw.Body.String())
					return
				}
			}
		}(path, h)
	}

	const Q = 24
	var logged bytes.Buffer
	sink := NewSlogTracer(slog.New(slog.NewJSONHandler(&logged, nil)), time.Nanosecond)
	var queries sync.WaitGroup
	for i := 0; i < Q; i++ {
		queries.Add(1)
		go func(i int) {
			defer queries.Done()
			alg := []Algorithm{CEAlg, EDCAlg, LBCAlg}[i%3]
			if _, err := pool.Skyline(context.Background(), Query{
				Points: tr.pts, Algorithm: alg, UseAttrs: tr.use, Trace: true, Tracer: sink,
			}); err != nil && err != ErrPoolSaturated {
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	queries.Wait()
	close(stop)
	scrapers.Wait()
	done := 0
	for _, l := range logLines(t, &logged) {
		if l["msg"] == "skyline query done" {
			done++
		}
	}
	if done != Q {
		t.Errorf("the shared sink logged %d of %d submissions", done, Q)
	}

	// The trace handler must serve an export for a retained trace.
	recs := pool.FlightRecords()
	var id string
	for _, r := range recs {
		if r.TraceID != "" && r.Outcome == "served" {
			id = r.TraceID
			break
		}
	}
	if id == "" {
		t.Fatalf("no served traced record among %d records", len(recs))
	}
	rw := httptest.NewRecorder()
	pool.TraceHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/trace?id="+id, nil))
	if rw.Code != 200 {
		t.Fatalf("/debug/trace?id=%s: status %d: %s", id, rw.Code, rw.Body.String())
	}
	if !strings.Contains(rw.Body.String(), "traceEvents") {
		t.Errorf("/debug/trace export malformed: %.200s", rw.Body.String())
	}
	rw = httptest.NewRecorder()
	pool.TraceHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/trace?id=t0fffffff", nil))
	if rw.Code != 404 {
		t.Errorf("unknown trace id: status %d, want 404", rw.Code)
	}
	rw = httptest.NewRecorder()
	pool.TraceHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/trace?id=bogus", nil))
	if rw.Code != 400 {
		t.Errorf("malformed trace id: status %d, want 400", rw.Code)
	}
}

// TestPoolQueueWaitSpan pins the pool-level span: a query admitted
// through a saturated single-worker pool carries a pool.queue_wait span
// covering its time in line.
func TestPoolQueueWaitSpan(t *testing.T) {
	tr := newFuzzTrial(t, 4246)
	eng := tr.tracedEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const Q = 6
	results := make([]*Result, Q)
	var wg sync.WaitGroup
	for i := 0; i < Q; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = pool.Skyline(context.Background(), Query{
				Points: tr.pts, Algorithm: LBCAlg, UseAttrs: tr.use, Trace: true,
			})
		}(i)
	}
	wg.Wait()

	spanned := 0
	for i, res := range results {
		if res == nil {
			continue
		}
		rec, ok := pool.TraceRecord(res.TraceID)
		if !ok {
			t.Fatalf("query %d: no record for %s", i, res.TraceID)
		}
		if _, ok := obs.FindSpan(rec.Spans, obs.SpanQueueWait); ok {
			spanned++
		}
	}
	if spanned == 0 {
		t.Errorf("no pool query carries a %s span", obs.SpanQueueWait)
	}
}
