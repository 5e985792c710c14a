package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// exactQuantile is the sort-based oracle: the ceil(q*n)-th order
// statistic, the same convention latQuantile targets.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// checkQuantile asserts the histogram estimate brackets the oracle value:
// never below it, and at most one sub-bucket (1/latSubCount relative)
// above — the layout's guaranteed error bound.
func checkQuantile(t *testing.T, name string, est, exact time.Duration) {
	t.Helper()
	if exact < latUpper(0) {
		// Underflow bucket: everything faster than ~1 µs reports its edge.
		if est > latUpper(0) {
			t.Errorf("%s: underflow estimate %v > bucket edge %v (exact %v)", name, est, latUpper(0), exact)
		}
		return
	}
	if est < exact {
		t.Errorf("%s: estimate %v below exact %v", name, est, exact)
	}
	limit := exact + exact/latSubCount + 1
	if est > limit {
		t.Errorf("%s: estimate %v above bound %v (exact %v)", name, est, limit, exact)
	}
}

func TestLatBucketLayout(t *testing.T) {
	// Indexes are monotone and uppers bracket their bucket.
	prev := -1
	for _, ns := range []time.Duration{0, 1, time.Microsecond, 1023, 1024, 1055,
		1056, 4095, 4096, time.Millisecond, 2500 * time.Microsecond,
		time.Second, 10 * time.Second, 5 * time.Minute, time.Hour} {
		i := latIndex(ns)
		if i < prev {
			t.Fatalf("latIndex not monotone at %v: %d < %d", ns, i, prev)
		}
		prev = i
		if i < 0 || i >= NumLatBuckets {
			t.Fatalf("latIndex(%v) = %d out of range", ns, i)
		}
		if ns <= latUpper(NumLatBuckets-2) && ns > latUpper(0) {
			if up := latUpper(i); ns > up {
				t.Fatalf("latUpper(%d) = %v below the value %v it buckets", i, up, ns)
			}
		}
	}
	// Upper edges are inclusive, as Prometheus's le is: the edge value
	// itself belongs to bucket i and the value just above it starts the
	// next bucket. So the reported quantile (the upper edge) is ≥ every
	// value in the bucket, and an edge's cumulative count is exact.
	for i := 0; i < NumLatBuckets-2; i++ {
		up := latUpper(i)
		if got := latIndex(up); got != i {
			t.Fatalf("latIndex(latUpper(%d)=%v) = %d, want %d", i, up, got, i)
		}
		if got := latIndex(up + 1); got != i+1 {
			t.Fatalf("latIndex(latUpper(%d)+1) = %d, want %d", i, got, i+1)
		}
	}
}

// testWindow returns a window with a controllable clock.
func testWindow(sec int64) (*Window, *int64) {
	now := sec
	w := NewWindow()
	w.now = func() int64 { return now }
	return w, &now
}

// observe feeds w one finished submission's record.
func observe(w *Window, outcome string, wall time.Duration, dcHits, dcMisses, wfLeads, wfShares int) {
	w.Observe(&FlightRecord{Outcome: outcome, Wall: wall,
		DistCacheHits: dcHits, DistCacheMisses: dcMisses, WavefrontLeads: wfLeads, WavefrontShares: wfShares})
}

func TestWindowViewAggregatesCompleteSeconds(t *testing.T) {
	w, now := testWindow(1000)
	// Three seconds of traffic: 2, 3 and 4 served queries.
	for s, n := range map[int64]int{1000: 2, 1001: 3, 1002: 4} {
		*now = s
		for i := 0; i < n; i++ {
			observe(w, OutcomeServed, 10*time.Millisecond, 1, 1, 0, 1)
		}
	}
	*now = 1003 // seconds 1000..1002 are now complete
	v1 := w.View(1)
	if v1.Total != 4 || v1.TPS != 4 {
		t.Fatalf("1s view: total %d tps %g, want 4", v1.Total, v1.TPS)
	}
	v10 := w.View(10)
	if v10.Total != 9 {
		t.Fatalf("10s view: total %d, want 9", v10.Total)
	}
	if v10.TPS != 0.9 {
		t.Fatalf("10s view: tps %g, want 0.9", v10.TPS)
	}
	if v10.Served != 9 || v10.LatencyCount != 9 {
		t.Fatalf("10s view: served %d latency count %d, want 9", v10.Served, v10.LatencyCount)
	}
	if v10.DistCacheHits != 9 || v10.DistCacheMisses != 9 || v10.DistCacheHitRate != 0.5 {
		t.Fatalf("10s view distcache: %d/%d rate %g", v10.DistCacheHits, v10.DistCacheMisses, v10.DistCacheHitRate)
	}
	if v10.WavefrontShares != 9 || v10.WavefrontShareRate != 1 {
		t.Fatalf("10s view wavefront: shares %d rate %g", v10.WavefrontShares, v10.WavefrontShareRate)
	}
	// The in-progress second is excluded.
	observe(w, OutcomeServed, time.Millisecond, 0, 0, 0, 0)
	if v := w.View(10); v.Total != 9 {
		t.Fatalf("in-progress second leaked into the view: total %d", v.Total)
	}
}

func TestWindowOutcomeSplit(t *testing.T) {
	w, now := testWindow(500)
	observe(w, OutcomeServed, time.Millisecond, 0, 0, 0, 0)
	observe(w, OutcomeError, 2*time.Millisecond, 0, 0, 0, 0)
	observe(w, OutcomeCancelled, time.Minute, 0, 0, 0, 0)
	observe(w, OutcomeSaturated, time.Nanosecond, 0, 0, 0, 0)
	observe(w, OutcomeClosed, time.Nanosecond, 0, 0, 0, 0)
	observe(w, OutcomeAbandoned, time.Millisecond, 0, 0, 0, 0) // a worker did the work: served
	*now = 501
	v := w.View(1)
	if v.Served != 2 || v.Errors != 1 || v.Cancelled != 1 || v.Saturated != 1 || v.Closed != 1 || v.Total != 6 {
		t.Fatalf("outcome split wrong: %+v", v)
	}
	// Only the latencies of completed submissions count: the saturated
	// nanosecond and the cancelled minute must not drag the quantiles.
	if v.LatencyCount != 3 {
		t.Fatalf("latency count %d, want 3 (served+abandoned+error only)", v.LatencyCount)
	}
	if v.P99 > 3*time.Millisecond || v.P50 < time.Millisecond {
		t.Fatalf("quantiles polluted by non-completed outcomes: p50 %v p99 %v", v.P50, v.P99)
	}
}

// TestWindowQuantileOracle holds the window's quantiles to a sort-based
// oracle over two input sets: uniform latencies up to 200 ms, and
// log-uniform latencies from 2 µs to 8.6 s plus exact bucket edges, so the
// boundary handling of the bucket layout is exercised too.
func TestWindowQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var uniform, logUniform []time.Duration
	for i := 0; i < 3200; i++ {
		uniform = append(uniform, time.Duration(rng.Int63n(int64(200*time.Millisecond))))
	}
	for i := 0; i < 5000; i++ {
		exp := 11 + rng.Float64()*22 // 2^11 ns .. 2^33 ns
		logUniform = append(logUniform, time.Duration(float64(uint64(1)<<11)*pow2(exp-11)))
	}
	for i := 0; i < NumLatBuckets; i += 37 {
		logUniform = append(logUniform, latUpper(i))
	}
	for _, tc := range []struct {
		name string
		all  []time.Duration
	}{{"uniform", uniform}, {"log-uniform+edges", logUniform}} {
		t.Run(tc.name, func(t *testing.T) {
			w, now := testWindow(2000)
			// Spread the observations over eight complete seconds.
			for i, d := range tc.all {
				*now = 2000 + int64(8*i/len(tc.all))
				observe(w, OutcomeServed, d, 0, 0, 0, 0)
			}
			*now = 2008
			all := append([]time.Duration(nil), tc.all...)
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			v := w.View(10)
			if v.LatencyCount != uint64(len(all)) {
				t.Fatalf("latency count %d != %d", v.LatencyCount, len(all))
			}
			checkQuantile(t, "p50", v.P50, exactQuantile(all, 0.5))
			checkQuantile(t, "p90", v.P90, exactQuantile(all, 0.9))
			checkQuantile(t, "p99", v.P99, exactQuantile(all, 0.99))
			checkQuantile(t, "p999", v.P999, exactQuantile(all, 0.999))
		})
	}
}

func pow2(x float64) float64 {
	// Cheap 2^x for test data; precision is irrelevant.
	y := 1.0
	for x >= 1 {
		y *= 2
		x--
	}
	return y * (1 + x) // good enough between octaves
}

func TestWindowIdleGapAndWraparound(t *testing.T) {
	w, now := testWindow(100)
	observe(w, OutcomeServed, time.Millisecond, 0, 0, 0, 0)
	// Idle gap far longer than the ring: the old second's bucket is stale
	// (epoch outside every view) but was never cleared.
	*now = 100 + 10*windowBuckets
	if v := w.View(WindowMaxSeconds); v.Total != 0 {
		t.Fatalf("stale bucket leaked across an idle gap: %+v", v)
	}
	// The slot for the old second is reused by the second that maps to the
	// same ring index; rotation must clear the old counts.
	reuse := int64(100 + 10*windowBuckets)
	for (reuse % windowBuckets) != (100 % windowBuckets) {
		reuse++
	}
	*now = reuse
	observe(w, OutcomeServed, time.Millisecond, 0, 0, 0, 0)
	*now = reuse + 1
	if v := w.View(1); v.Total != 1 || v.Served != 1 {
		t.Fatalf("reused bucket kept stale counts: %+v", v)
	}
	// Continuous traffic across more seconds than the ring holds: each
	// complete-second view stays exact.
	w2, now2 := testWindow(0)
	for s := int64(0); s < 3*windowBuckets; s++ {
		*now2 = s
		for i := int64(0); i <= s%5; i++ {
			observe(w2, OutcomeServed, time.Millisecond, 0, 0, 0, 0)
		}
	}
	*now2 = 3 * windowBuckets
	want := uint64(0)
	for s := int64(3*windowBuckets - 10); s < 3*windowBuckets; s++ {
		want += uint64(s%5) + 1
	}
	if v := w2.View(10); v.Total != want {
		t.Fatalf("wraparound view total %d, want %d", v.Total, want)
	}
}

func TestWindowNilSafeAndAllocFree(t *testing.T) {
	var nilW *Window
	observe(nilW, OutcomeServed, time.Millisecond, 1, 1, 1, 1)
	if v := nilW.View(10); v.WindowSeconds != 10 || v.Total != 0 {
		t.Fatalf("nil view: %+v", v)
	}
	if nilW.Views() != nil {
		t.Fatalf("nil Views must be nil")
	}

	// The disabled observe path and the enabled hot path are both
	// allocation-free — the acceptance gate for "zero added steady-state
	// allocations" at the obs layer.
	if a := testing.AllocsPerRun(200, func() {
		observe(nilW, OutcomeServed, time.Millisecond, 0, 0, 0, 0)
	}); a != 0 {
		t.Fatalf("nil Observe allocates %.1f/op", a)
	}
	w, _ := testWindow(9000)
	observe(w, OutcomeServed, time.Millisecond, 0, 0, 0, 0)
	if a := testing.AllocsPerRun(200, func() {
		observe(w, OutcomeServed, time.Millisecond, 1, 0, 1, 0)
	}); a != 0 {
		t.Fatalf("enabled Observe allocates %.1f/op", a)
	}
}

// TestWindowConcurrent races observers against viewers and rotation; run
// under -race it pins that the ring needs no locks.
func TestWindowConcurrent(t *testing.T) {
	w := NewWindow()
	var base int64 = 10_000
	var tick sync.Mutex
	cur := base
	w.now = func() int64 { tick.Lock(); defer tick.Unlock(); return cur }

	outcomes := []string{OutcomeServed, OutcomeError, OutcomeCancelled, OutcomeAbandoned, OutcomeSaturated, OutcomeClosed}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				observe(w, outcomes[rng.Intn(len(outcomes))],
					time.Duration(rng.Int63n(int64(time.Second))), 1, 1, 1, 1)
			}
		}(g)
	}
	wg.Add(1)
	go func() { // viewer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = w.View(10)
			_ = w.Views()
		}
	}()
	// Advance the clock through several ring wraps so rotation races with
	// both observers and viewers.
	for i := 0; i < 3*windowBuckets; i++ {
		tick.Lock()
		cur++
		tick.Unlock()
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
}
