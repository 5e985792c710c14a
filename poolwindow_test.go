package roadskyline

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roadskyline/internal/core"
	"roadskyline/internal/obs"
)

// TestPoolMetricsTornRead pins the satellite fix: under concurrent
// traffic, every scrape must satisfy Submitted ≥ the sum of the outcome
// counters. The pre-fix load order (submitted first, outcomes after)
// could observe an outcome whose submission the scrape had missed,
// making the implied in-flight count negative. Run with -race.
func TestPoolMetricsTornRead(t *testing.T) {
	eng, n := poolTestEngine(t)
	p, err := NewPool(eng, PoolConfig{Workers: 4, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	queries := mixedQueries(n)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g*7+i)%len(queries)]
				if _, err := p.Skyline(context.Background(), q); err != nil && err != ErrPoolSaturated {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	deadline := time.Now().Add(2 * time.Second)
	scrapes := 0
	for time.Now().Before(deadline) {
		m := p.PoolMetrics()
		sum := m.Served + m.Saturated + m.Cancelled + m.Closed
		if m.Submitted < sum {
			t.Fatalf("torn read: Submitted %d < outcome sum %d", m.Submitted, sum)
		}
		scrapes++
	}
	close(stop)
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("no scrapes ran")
	}
	m := p.PoolMetrics()
	if sum := m.Served + m.Saturated + m.Cancelled + m.Closed; m.Submitted != sum {
		t.Fatalf("at quiescence Submitted %d != outcome sum %d", m.Submitted, sum)
	}
}

// TestPoolWindowViews drives real traffic through a window-enabled pool
// and checks the rolling views pick it up, across both submission paths
// (Skyline, serial and concurrent, and SkylineIter).
func TestPoolWindowViews(t *testing.T) {
	eng, n := poolTestEngine(t)
	p, err := NewPool(eng, PoolConfig{Workers: 2, Window: true, RuntimeSample: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	queries := mixedQueries(n)

	run := func() (served int) {
		for _, q := range queries[:6] {
			if _, err := p.Skyline(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			served++
		}
		errs := make(chan error, 4)
		for _, q := range queries[:4] {
			go func() {
				_, err := p.Skyline(context.Background(), q)
				errs <- err
			}()
		}
		for range 4 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			served++
		}
		it, err := p.SkylineIter(context.Background(), Query{Points: n.GenerateQueryPoints(2, 0.1, 5)})
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
		it.Close()
		return served + 1
	}
	total := run()
	// The view only covers complete seconds; wait for the second holding
	// the traffic to finish, re-driving if a boundary split it.
	deadline := time.Now().Add(5 * time.Second)
	var v LoadStats
	for {
		m := p.PoolMetrics()
		if len(m.Load) != 3 {
			t.Fatalf("Load has %d views, want 3", len(m.Load))
		}
		v = m.Load[2] // 60s view: wide enough to cover everything driven so far
		if v.Total >= uint64(total) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("60s view never caught up: total %d < %d", v.Total, total)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if v.Served != v.Total || v.Errors != 0 || v.Saturated != 0 {
		t.Fatalf("unexpected outcome split: %+v", v)
	}
	if v.LatencyCount != v.Served || v.P50 <= 0 || v.P99 < v.P50 {
		t.Fatalf("latency view inconsistent: %+v", v)
	}
	if v.TPS <= 0 || v.MeanLatency <= 0 {
		t.Fatalf("rates missing: %+v", v)
	}
	if m := p.PoolMetrics(); m.Runtime == nil || m.Runtime.HeapBytes == 0 {
		t.Fatalf("runtime sample missing: %+v", m.Runtime)
	}
	if ws := []int{m0Window(p).WindowSeconds}; ws[0] != 1 {
		t.Fatalf("first view should be 1s, got %d", ws[0])
	}
}

func m0Window(p *Pool) LoadStats { return p.PoolMetrics().Load[0] }

// TestPoolWindowDisabled: the default pool has no window and no sampler —
// PoolMetrics reports nil for both, and the per-query path adds zero
// allocations (the acceptance gate for the disabled path).
func TestPoolWindowDisabled(t *testing.T) {
	eng, n := poolTestEngine(t)
	p, err := NewPool(eng, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m := p.PoolMetrics()
	if m.Load != nil {
		t.Fatalf("disabled pool has Load views: %+v", m.Load)
	}
	if m.Runtime != nil {
		t.Fatalf("disabled pool has a runtime sample: %+v", m.Runtime)
	}
	// Finalizing a submission and handing its record to a pool whose
	// optional consumers (recorder, window, trace) are all off is
	// allocation-free.
	q := Query{Points: n.GenerateQueryPoints(2, 0.1, 3), Algorithm: LBCAlg}
	if a := testing.AllocsPerRun(100, func() {
		p.finish(p.all[0], finalize(p.inflight, q, core.Metrics{NetworkGets: 3}, time.Now(), nil, false))
	}); a != 0 {
		t.Fatalf("finalization with every optional consumer off allocates %.1f/op", a)
	}
}

// TestLoadExposition drives traffic through a window-enabled pool and
// checks the new roadskyline_load_*/roadskyline_runtime_* Prometheus
// families and the /debug/load JSON endpoint serve live data — and that
// a disabled pool exposes neither family.
func TestLoadExposition(t *testing.T) {
	eng, n := poolTestEngine(t)
	p, err := NewPool(eng, PoolConfig{Workers: 2, Window: true, RuntimeSample: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, q := range mixedQueries(n)[:6] {
		if _, err := p.Skyline(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}

	rw := httptest.NewRecorder()
	p.MetricsHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	body := rw.Body.String()
	for _, want := range []string{
		`roadskyline_load_tps{window="1s"}`,
		`roadskyline_load_tps{window="10s"}`,
		`roadskyline_load_tps{window="60s"}`,
		`roadskyline_load_queries{window="10s",outcome="served"}`,
		`roadskyline_load_latency_seconds{window="60s",quantile="0.99"}`,
		`roadskyline_load_distcache_hit_rate{window="10s"}`,
		`roadskyline_load_wavefront_share_rate{window="10s"}`,
		"roadskyline_runtime_heap_bytes ",
		"roadskyline_runtime_goroutines ",
		`roadskyline_runtime_gc_pause_seconds{quantile="0.99"}`,
		`roadskyline_runtime_sched_latency_seconds{quantile="0.5"}`,
		"roadskyline_runtime_alloc_bytes_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	rw = httptest.NewRecorder()
	p.LoadHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/load?history=5", nil))
	var resp struct {
		Enabled bool        `json:"enabled"`
		Windows []LoadStats `json:"windows"`
		Runtime *struct {
			HeapBytes uint64 `json:"heap_bytes"`
		} `json:"runtime"`
		History []json.RawMessage `json:"history"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/debug/load: %v\n%s", err, rw.Body.String())
	}
	if !resp.Enabled || len(resp.Windows) != 3 {
		t.Fatalf("/debug/load: enabled=%v windows=%d", resp.Enabled, len(resp.Windows))
	}
	if resp.Windows[0].WindowSeconds != 1 || resp.Windows[2].WindowSeconds != 60 {
		t.Fatalf("/debug/load window widths: %+v", resp.Windows)
	}
	if resp.Runtime == nil || resp.Runtime.HeapBytes == 0 {
		t.Fatalf("/debug/load runtime sample missing")
	}
	if len(resp.History) == 0 || len(resp.History) > 5 {
		t.Fatalf("/debug/load history: %d samples", len(resp.History))
	}
	rw = httptest.NewRecorder()
	p.LoadHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/load?history=bogus", nil))
	if rw.Code != 400 {
		t.Fatalf("bad history param: status %d", rw.Code)
	}

	// Disabled pool: no load/runtime families, /debug/load reports off.
	p2, err := NewPool(eng, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	rw = httptest.NewRecorder()
	p2.MetricsHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if s := rw.Body.String(); strings.Contains(s, "roadskyline_load_") || strings.Contains(s, "roadskyline_runtime_") {
		t.Fatal("disabled pool exposes load/runtime families")
	}
	rw = httptest.NewRecorder()
	p2.LoadHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/load", nil))
	var off loadResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &off); err != nil {
		t.Fatal(err)
	}
	if off.Enabled || len(off.Windows) != 0 || off.Runtime != nil {
		t.Fatalf("disabled /debug/load: %+v", off)
	}
}

// TestPoolWindowScrapeRace races window-enabled pool traffic against
// PoolMetrics scrapes and direct view reads; run with -race it pins the
// lock-free ring against rotation. (Satellite: scrapes vs rotation vs
// pool traffic.)
func TestPoolWindowScrapeRace(t *testing.T) {
	eng, n := poolTestEngine(t)
	p, err := NewPool(eng, PoolConfig{Workers: 4, QueueDepth: 2, Window: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	queries := mixedQueries(n)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g*5+i)%len(queries)]
				_, err := p.Skyline(context.Background(), q)
				if err != nil && err != ErrPoolSaturated {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := p.PoolMetrics()
			for _, v := range m.Load {
				if v.Served+v.Errors+v.Cancelled+v.Saturated+v.Closed != v.Total {
					t.Errorf("view outcome sum != total: %+v", v)
					return
				}
			}
			_ = p.window.View(obs.WindowMaxSeconds)
		}
	}()
	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
}
