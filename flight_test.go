package roadskyline

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"roadskyline/internal/obs"
)

// flightTestEngine is poolTestEngine with the flight recorder on: same
// network and objects, so results are comparable, plus bounded retention
// big enough that nothing is evicted during a stress run.
func flightTestEngine(t *testing.T) (*Engine, *Network) {
	t.Helper()
	n, err := Generate(NetworkSpec{Name: "pool", Nodes: 300, Edges: 390,
		NumObstacles: 2, ObstacleSize: 0.15, Jitter: 0.3, MaxStretch: 0.2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(n, n.GenerateObjects(0.4, 1, 17), EngineConfig{
		FlightRecorder: FlightRecorderConfig{Size: 4096, SlowN: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

// queueBehindIterator holds the pool's only worker with an open iterator
// and parks one Skyline call behind it in the admission queue. It returns
// the iterator, the parked call's cancel function, and a wait that
// returns the parked call's error once it ends.
func queueBehindIterator(t *testing.T, pool *Pool, q Query) (it *SkylineIterator, cancel func(), wait func() error) {
	t.Helper()
	it, err := pool.SkylineIter(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pool.Skyline(ctx, q)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); pool.PoolMetrics().Waiting != 1; {
		if time.Now().After(deadline) {
			t.Fatal("queued submission never started waiting for the worker")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return it, cancel, func() error { return <-done }
}

// TestFlightRecorderPoolReconcile takes a pool through every exit a
// submission has, one table row each, and then through the churn of all
// of them at once. After each it demands that the three accountings fed
// by the submission's one record agree exactly: the pool's outcome
// counters, the flight recorder's outcome counts (the identities of the
// outcome table in internal/obs/flight.go) and the rolling window's
// totals. Run under -race.
func TestFlightRecorderPoolReconcile(t *testing.T) {
	single := PoolConfig{Workers: 1, QueueDepth: 1, Window: true}
	exits := []struct {
		name string
		cfg  PoolConfig
		run  func(t *testing.T, pool *Pool, qs []Query)
		// want is the exact flight outcome counts the row must leave; nil
		// when timing decides them.
		want map[string]uint64
	}{
		{"served", single, func(t *testing.T, pool *Pool, qs []Query) {
			if _, err := pool.Skyline(context.Background(), qs[0]); err != nil {
				t.Fatal(err)
			}
		}, map[string]uint64{"served": 1}},
		{"query error", single, func(t *testing.T, pool *Pool, qs []Query) {
			if _, err := pool.Skyline(context.Background(), Query{Algorithm: EDCAlg}); err == nil {
				t.Fatal("query without points succeeded")
			}
		}, map[string]uint64{"error": 1}},
		{"saturated", single, func(t *testing.T, pool *Pool, qs []Query) {
			it, cancel, wait := queueBehindIterator(t, pool, qs[2])
			if _, err := pool.Skyline(context.Background(), qs[0]); !errors.Is(err, ErrPoolSaturated) {
				t.Fatalf("err = %v, want ErrPoolSaturated", err)
			}
			if _, err := pool.SkylineIter(context.Background(), qs[2]); !errors.Is(err, ErrPoolSaturated) {
				t.Fatalf("iter err = %v, want ErrPoolSaturated", err)
			}
			it.Close()
			if err := wait(); err != nil {
				t.Fatal(err)
			}
			cancel()
		}, map[string]uint64{"saturated": 2, "abandoned": 1, "served": 1}},
		{"cancelled in queue", single, func(t *testing.T, pool *Pool, qs []Query) {
			it, cancel, wait := queueBehindIterator(t, pool, qs[2])
			cancel()
			if err := wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			it.Close()
		}, map[string]uint64{"cancelled": 1, "abandoned": 1}},
		{"cancelled mid-query", single, func(t *testing.T, pool *Pool, qs []Query) {
			// The gate holds the query at its first context check inside a
			// phase, once its searchers run; the context dies there, and the
			// expansion notices.
			q := qs[2]
			q.Trace = true
			ctx, cancel := context.WithCancel(context.Background())
			gate := newGateContext(ctx, func() bool {
				live := pool.InflightQueries()
				return len(live) == 1 && live[0].Phase != ""
			})
			done := make(chan error, 1)
			go func() {
				_, err := pool.Skyline(gate, q)
				done <- err
			}()
			gate.wait(t)
			cancel()
			close(gate.release)
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if n := pool.PoolMetrics().QueueWait.Count; n != 1 {
				t.Errorf("%d worker checkouts, want 1: the query was not cancelled on a worker", n)
			}
		}, map[string]uint64{"cancelled": 1}},
		{"closed", single, func(t *testing.T, pool *Pool, qs []Query) {
			pool.Close()
			if _, err := pool.Skyline(context.Background(), qs[0]); !errors.Is(err, ErrPoolClosed) {
				t.Fatalf("err = %v, want ErrPoolClosed", err)
			}
			if _, err := pool.SkylineIter(context.Background(), qs[2]); !errors.Is(err, ErrPoolClosed) {
				t.Fatalf("iter err = %v, want ErrPoolClosed", err)
			}
		}, map[string]uint64{"closed": 2}},
		{"iterator drained", single, func(t *testing.T, pool *Pool, qs []Query) {
			it, err := pool.SkylineIter(context.Background(), qs[2])
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
			it.Close() // after exhaustion: no second record
		}, map[string]uint64{"served": 1}},
		{"iterator abandoned", single, func(t *testing.T, pool *Pool, qs []Query) {
			it, err := pool.SkylineIter(context.Background(), qs[2])
			if err != nil {
				t.Fatal(err)
			}
			it.Close()
			it.Close()
		}, map[string]uint64{"abandoned": 1}},
		{"iterator failed", single, func(t *testing.T, pool *Pool, qs []Query) {
			// At the start: a query the engine rejects.
			if _, err := pool.SkylineIter(context.Background(), Query{}); err == nil {
				t.Fatal("iterator without points started")
			}
			// Mid-iteration: the context dies between two Next calls.
			ctx, cancel := context.WithCancel(context.Background())
			it, err := pool.SkylineIter(ctx, qs[2])
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := it.Next(); err != nil || !ok {
				t.Fatalf("first Next: ok=%v err=%v", ok, err)
			}
			cancel()
			if _, _, err := it.Next(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Next after cancel: err = %v, want context.Canceled", err)
			}
		}, map[string]uint64{"error": 1, "cancelled": 1}},
		{"batch", single, func(t *testing.T, pool *Pool, qs []Query) {
			// A caller's batch is a loop over Skyline; under a context that
			// is already dead every submission ends at admission.
			batch := append([]Query{{Algorithm: CEAlg}}, qs[:5]...)
			for i, q := range batch {
				if _, err := pool.Skyline(context.Background(), q); (err != nil) != (i == 0) {
					t.Fatalf("batch query %d: err = %v, want only the pointless query to fail", i, err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			for i, q := range qs[:3] {
				if _, err := pool.Skyline(ctx, q); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled batch query %d: err = %v", i, err)
				}
			}
		}, map[string]uint64{"served": 5, "error": 1, "cancelled": 3}},
		{"churn", PoolConfig{Workers: 2, QueueDepth: 2, Window: true}, func(t *testing.T, pool *Pool, qs []Query) {
			const goroutines, rounds = 8, 12
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						q := qs[(g*rounds+r)%len(qs)]
						switch r % 4 {
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
								it.Close() // abandoned unless Next already exhausted it
							}
						case 3:
							pool.Skyline(context.Background(), Query{Algorithm: q.Algorithm})
						}
					}
				}(g)
			}
			wg.Wait()
			pool.Close()
			pool.Skyline(context.Background(), qs[0]) // one for the closed bucket
			if m := pool.PoolMetrics(); m.Submitted != goroutines*rounds+1 {
				t.Errorf("Submitted = %d, want %d", m.Submitted, goroutines*rounds+1)
			}
		}, nil},
	}
	pools := make([]*Pool, len(exits))
	for i, ex := range exits {
		t.Run(ex.name, func(t *testing.T) {
			eng, n := flightTestEngine(t)
			pool, err := NewPool(eng, ex.cfg)
			if err != nil {
				t.Fatal(err)
			}
			pools[i] = pool
			ex.run(t, pool, mixedQueries(n))
			pool.Close()

			m := pool.PoolMetrics()
			fo := m.FlightOutcomes
			for _, o := range []string{"served", "error", "abandoned", "cancelled", "saturated", "closed"} {
				if ex.want != nil && fo[o] != ex.want[o] {
					t.Errorf("recorder %s = %d, want %d (outcomes %v)", o, fo[o], ex.want[o], fo)
				}
			}
			if m.InFlight != 0 || m.Waiting != 0 || len(pool.queue) != 0 || len(pool.workers) != pool.Workers() {
				t.Errorf("pool not at rest: in flight %d, waiting %d, tokens %d, idle workers %d",
					m.InFlight, m.Waiting, len(pool.queue), len(pool.workers))
			}

			// Pool counters against the recorder: every submission left
			// exactly one record, bucketed as the outcome table says.
			if sum := m.Served + m.Saturated + m.Cancelled + m.Closed; sum != m.Submitted || m.FlightSeen != m.Submitted {
				t.Errorf("Submitted %d, outcome sum %d, FlightSeen %d: want all equal (outcomes %v)",
					m.Submitted, sum, m.FlightSeen, fo)
			}
			if got := fo["served"] + fo["error"] + fo["abandoned"]; got != m.Served {
				t.Errorf("served %d + error %d + abandoned %d = %d, want Pool.Served %d",
					fo["served"], fo["error"], fo["abandoned"], got, m.Served)
			}
			if fo["cancelled"] != m.Cancelled || fo["saturated"] != m.Saturated || fo["closed"] != m.Closed {
				t.Errorf("recorder %v, want cancelled %d saturated %d closed %d", fo, m.Cancelled, m.Saturated, m.Closed)
			}
			// The duration histograms see the same population.
			var durTotal uint64
			for _, d := range m.Durations {
				durTotal += d.Hist.Count
			}
			if durTotal != m.FlightSeen {
				t.Errorf("duration histograms count %d, want FlightSeen %d", durTotal, m.FlightSeen)
			}
			// Retention held everything (Size 4096 >> workload), so the
			// records themselves are auditable: every served record has a
			// phase breakdown, and the pool timed every submission.
			recs := pool.FlightRecords()
			if uint64(len(recs)) != m.FlightSeen {
				t.Errorf("retained %d records, want all %d", len(recs), m.FlightSeen)
			}
			for _, r := range recs {
				if r.Outcome == "served" && len(r.Phases) == 0 {
					t.Errorf("served record #%d (%s) has no phase breakdown", r.Seq, r.Alg)
				}
				if r.Wall <= 0 {
					t.Errorf("%s record #%d has no wall time", r.Outcome, r.Seq)
				}
			}
		})
	}

	// The windows against the recorders. Views cover complete seconds
	// only, so wait out the second the last submission finished in.
	for end := time.Now().Unix(); time.Now().Unix() == end; {
		time.Sleep(20 * time.Millisecond)
	}
	for i, ex := range exits {
		pool := pools[i]
		if pool == nil {
			continue // the row failed before it had a pool
		}
		m := pool.PoolMetrics()
		fo := m.FlightOutcomes
		v := pool.window.View(obs.WindowMaxSeconds)
		if v.Total != m.Submitted || v.Served != fo["served"]+fo["abandoned"] || v.Errors != fo["error"] ||
			v.Cancelled != fo["cancelled"] || v.Saturated != fo["saturated"] || v.Closed != fo["closed"] {
			t.Errorf("%s: window %+v does not match recorder %v", ex.name, v, fo)
		}
		if v.LatencyCount != m.Served {
			t.Errorf("%s: window latency count %d, want Pool.Served %d", ex.name, v.LatencyCount, m.Served)
		}
	}
}

// promSample is one parsed exposition sample line.
type promSample struct {
	name   string
	labels string
	value  float64
}

// parseExposition parses a Prometheus text-format body: HELP/TYPE
// declarations and samples, failing the test on any malformed line.
func parseExposition(t *testing.T, body string) (types map[string]string, helps map[string]bool, samples []promSample) {
	t.Helper()
	types, helps = map[string]string{}, map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(f) != 2 || f[1] == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			helps[f[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(f) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		var s promSample
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("unbalanced braces: %q", line)
			}
			s.name, s.labels, rest = line[:i], line[i+1:j], line[j+1:]
		} else {
			f := strings.SplitN(line, " ", 2)
			if len(f) != 2 {
				t.Fatalf("malformed sample: %q", line)
			}
			s.name, rest = f[0], f[1]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		s.value = v
		samples = append(samples, s)
	}
	return types, helps, samples
}

// promFamily maps a sample name to its metric family: histogram samples
// use the _bucket/_sum/_count suffixes of the declared family name.
func promFamily(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suf); base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// labelsSansLe strips the le="..." pair from a bucket sample's labels,
// leaving the series key.
func labelsSansLe(t *testing.T, labels string) (series, le string) {
	t.Helper()
	var kept []string
	for _, pair := range strings.Split(labels, ",") {
		if v, ok := strings.CutPrefix(pair, "le="); ok {
			le = strings.Trim(v, `"`)
			continue
		}
		kept = append(kept, pair)
	}
	if le == "" {
		t.Fatalf("bucket sample without le label: %q", labels)
	}
	return strings.Join(kept, ","), le
}

// TestMetricsExpositionWellFormed is the parser-level guard on the
// /metrics endpoint: after a mixed workload on a flight-enabled pool it
// re-parses the full exposition and asserts, for every family, that HELP
// and TYPE are declared, histogram buckets are monotone non-decreasing
// with Count >= the last bounded bucket, and counters are non-negative.
func TestMetricsExpositionWellFormed(t *testing.T) {
	eng, n := flightTestEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i, q := range mixedQueries(n) {
		if i%5 == 4 {
			// Mix in errors and cancellations so those label values render.
			pool.Skyline(context.Background(), Query{Algorithm: q.Algorithm})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			pool.Skyline(ctx, q)
			continue
		}
		if _, err := pool.Skyline(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(pool.MetricsHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	types, helps, samples := parseExposition(t, string(raw))

	if len(samples) == 0 {
		t.Fatal("no samples in exposition")
	}
	for fam, typ := range types {
		if typ != "counter" && typ != "gauge" && typ != "histogram" {
			t.Errorf("family %s has unknown type %q", fam, typ)
		}
	}

	// Every sample belongs to a family with both HELP and TYPE; counter
	// and histogram values never go negative.
	seenFam := map[string]bool{}
	for _, s := range samples {
		fam := promFamily(s.name, types)
		seenFam[fam] = true
		if !helps[fam] {
			t.Errorf("sample %s: family %s has no # HELP", s.name, fam)
		}
		if types[fam] == "" {
			t.Errorf("sample %s: family %s has no # TYPE", s.name, fam)
		}
		if types[fam] != "gauge" && s.value < 0 {
			t.Errorf("%s %s: negative %s value %g", s.name, s.labels, types[fam], s.value)
		}
	}
	// And no family is declared without samples — except histograms,
	// whose unlabeled families always render at least the +Inf bucket.
	for fam := range types {
		if !seenFam[fam] && types[fam] != "histogram" {
			t.Errorf("family %s declared but has no samples", fam)
		}
	}

	// Histogram shape: per series, buckets monotone non-decreasing in
	// exposition order, +Inf bucket == _count, _count >= last bounded
	// bucket.
	type hstate struct {
		last    float64
		bounded float64
		inf     float64
		hasInf  bool
	}
	hists := map[string]*hstate{}
	counts := map[string]float64{}
	for _, s := range samples {
		fam := promFamily(s.name, types)
		if types[fam] != "histogram" {
			continue
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			series, le := labelsSansLe(t, s.labels)
			key := fam + "|" + series
			st := hists[key]
			if st == nil {
				st = &hstate{}
				hists[key] = st
			}
			if s.value < st.last {
				t.Errorf("%s{%s}: bucket le=%q value %g < previous %g (not cumulative)",
					fam, series, le, s.value, st.last)
			}
			st.last = s.value
			if le == "+Inf" {
				st.inf, st.hasInf = s.value, true
			} else {
				st.bounded = s.value
			}
		case strings.HasSuffix(s.name, "_count"):
			counts[fam+"|"+s.labels] = s.value
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram series in exposition")
	}
	for key, st := range hists {
		if !st.hasInf {
			t.Errorf("histogram series %s has no +Inf bucket", key)
			continue
		}
		cnt, ok := counts[key]
		if !ok {
			t.Errorf("histogram series %s has no _count sample", key)
			continue
		}
		if cnt < st.bounded {
			t.Errorf("histogram series %s: count %g < last bounded bucket %g", key, cnt, st.bounded)
		}
		if st.inf != cnt {
			t.Errorf("histogram series %s: +Inf bucket %g != count %g", key, st.inf, cnt)
		}
	}

	// The duration family rendered real series for this workload.
	found := false
	for key := range hists {
		if strings.HasPrefix(key, "roadskyline_query_duration_seconds|") &&
			strings.Contains(key, `outcome="served"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("no served roadskyline_query_duration_seconds series; series: %v", keysOf(hists))
	}
}

func keysOf[V any](m map[string]*V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestFlightHandler exercises /debug/queries end to end: slowest-N with
// phase breakdowns, algorithm and outcome filters, the text rendering,
// parameter validation, and the recorder-disabled response.
func TestFlightHandler(t *testing.T) {
	eng, n := flightTestEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, q := range mixedQueries(n) {
		if _, err := pool.Skyline(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	// One validation error for the outcome filter.
	pool.Skyline(context.Background(), Query{Algorithm: CEAlg})

	srv := httptest.NewServer(pool.FlightHandler())
	defer srv.Close()
	get := func(query string) flightResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", query, resp.StatusCode)
		}
		var fr flightResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		return fr
	}

	// slowest=10: ten records, total-time descending, each with phases.
	fr := get("?slowest=10")
	if !fr.Enabled || fr.Seen != 25 {
		t.Fatalf("Enabled=%v Seen=%d, want enabled with 25 queries", fr.Enabled, fr.Seen)
	}
	if len(fr.Records) != 10 {
		t.Fatalf("slowest=10 returned %d records", len(fr.Records))
	}
	for i, r := range fr.Records {
		if i > 0 && r.Total > fr.Records[i-1].Total {
			t.Errorf("slowest not descending at %d: %v > %v", i, r.Total, fr.Records[i-1].Total)
		}
		if len(r.Phases) == 0 {
			t.Errorf("slowest record #%d (%s) has no phase breakdown", r.Seq, r.Alg)
		}
	}

	// Algorithm filter is case-insensitive; outcome filter is exact.
	for _, r := range get("?alg=lbc").Records {
		if r.Alg != "LBC" {
			t.Errorf("alg=lbc returned %s record", r.Alg)
		}
	}
	errRecs := get("?outcome=error").Records
	if len(errRecs) != 1 || errRecs[0].Err == "" {
		t.Errorf("outcome=error returned %d records, want the 1 validation error", len(errRecs))
	}
	if got := len(get("?limit=3").Records); got != 3 {
		t.Errorf("limit=3 returned %d records", got)
	}

	// Bad parameters are a 400, not a panic or a silent default.
	for _, bad := range []string{"?slowest=x", "?slowest=-1", "?limit=0"} {
		resp, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// format=text renders the human view with per-phase lines.
	resp, err := http.Get(srv.URL + "?format=text&slowest=3")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flight recorder: 25 queries seen", "outcome=served", "phase "} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}

	// A pool without a recorder reports disabled with empty records.
	plainEng, _ := poolTestEngine(t)
	plainPool, err := NewPool(plainEng, PoolConfig{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plainPool.Close()
	srv2 := httptest.NewServer(plainPool.FlightHandler())
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	var off flightResponse
	if err := json.NewDecoder(resp2.Body).Decode(&off); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if off.Enabled || off.Seen != 0 || off.Records == nil || len(off.Records) != 0 {
		t.Errorf("disabled recorder response = %+v, want enabled=false, seen=0, records=[]", off)
	}
}
