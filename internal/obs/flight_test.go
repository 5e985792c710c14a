package obs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramSnapshotCumulative(t *testing.T) {
	var h Histogram // the zero value is ready to use
	h.Observe(500 * time.Microsecond)
	h.Observe(time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Minute) // above the last bound: +Inf only
	s := h.Snapshot()
	if len(s.Bounds) != expoMaxExp-latMinExp+1 || len(s.Buckets) != len(s.Bounds) {
		t.Fatalf("%d bounds, %d buckets, want %d each", len(s.Bounds), len(s.Buckets), expoMaxExp-latMinExp+1)
	}
	// The bounds are the octave edges 2^10 ns .. 2^34 ns.
	for i, b := range s.Bounds {
		if want := time.Duration(1) << (latMinExp + i); b != want {
			t.Errorf("Bounds[%d] = %v, want %v", i, b, want)
		}
	}
	// 500 µs ≤ 2^19 ns, 1 ms ≤ 2^20 ns, 5 ms ≤ 2^23 ns.
	for i, b := range s.Bounds {
		want := uint64(0)
		switch {
		case b >= 1<<23:
			want = 3
		case b >= 1<<20:
			want = 2
		case b >= 1<<19:
			want = 1
		}
		if s.Buckets[i] != want {
			t.Errorf("Buckets[le=%v] = %d, want %d", b, s.Buckets[i], want)
		}
	}
	if s.Count != 4 {
		t.Errorf("Count = %d, want 4", s.Count)
	}
	if want := 500*time.Microsecond + time.Millisecond + 5*time.Millisecond + time.Minute; s.Sum != want {
		t.Errorf("Sum = %v, want %v", s.Sum, want)
	}
}

// TestHistogramExactLe observes values just under, at and just over
// several bounds, below the first and above the last, and holds every
// cumulative bucket to the exact number of observations ≤ its le.
func TestHistogramExactLe(t *testing.T) {
	var h Histogram
	var all []time.Duration
	add := func(d time.Duration) {
		h.Observe(d)
		all = append(all, d)
	}
	add(-time.Second) // a clock step backwards: the underflow bucket
	add(0)
	add(1)
	for _, e := range []int{latMinExp, 11, 17, 20, 27, 33, expoMaxExp} {
		edge := time.Duration(1) << e
		add(edge - 1)
		add(edge)
		add(edge)
		add(edge + 1)
	}
	add(time.Duration(1)<<latMaxExp + 12345)
	add(time.Hour)
	add(time.Duration(math.MaxInt64))
	s := h.Snapshot()
	for i, le := range s.Bounds {
		want := uint64(0)
		for _, d := range all {
			if d <= le {
				want++
			}
		}
		if s.Buckets[i] != want {
			t.Errorf("bucket le=%v: %d, want %d", le, s.Buckets[i], want)
		}
	}
	if s.Count != uint64(len(all)) {
		t.Errorf("Count = %d, want %d", s.Count, len(all))
	}
}

// TestHistogramConcurrentSnapshot races observers against snapshots; run
// under -race it pins that the histogram needs no locks. Every snapshot
// is monotone and never has a bucket above Count, and at rest the
// snapshot counts every observation.
func TestHistogramConcurrentSnapshot(t *testing.T) {
	var h Histogram
	const writers, each = 4, 5000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(g*each+i) * 997 * time.Nanosecond)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snaps := 0; ; snaps++ {
		s := h.Snapshot()
		for i := 1; i < len(s.Buckets); i++ {
			if s.Buckets[i] < s.Buckets[i-1] {
				t.Fatalf("buckets not monotone at %d: %v", i, s.Buckets)
			}
		}
		if last := s.Buckets[len(s.Buckets)-1]; last > s.Count {
			t.Fatalf("bucket %d above Count %d", last, s.Count)
		}
		select {
		case <-done:
			if s := h.Snapshot(); s.Count != writers*each {
				t.Fatalf("Count = %d at rest, want %d", s.Count, writers*each)
			}
			return
		default:
		}
	}
}

func TestNilFlightRecorder(t *testing.T) {
	var r *FlightRecorder
	r.Record(FlightRecord{Alg: "LBC"}) // must not panic
	if r.Seen() != 0 || r.Records() != nil || r.Slowest(5) != nil ||
		r.OutcomeCounts() != nil || r.Durations() != nil {
		t.Error("nil recorder leaked state")
	}
	if NewFlightRecorder(FlightConfig{Size: 0}) != nil {
		t.Error("Size 0 should disable the recorder")
	}
}

func TestFlightRecorderReservoirs(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Size: 8, SlowN: 3})
	// 100 served queries with increasing Total, plus errors sprinkled in.
	const total = 100
	for i := 1; i <= total; i++ {
		rec := FlightRecord{
			Alg:     "LBC",
			Outcome: OutcomeServed,
			Total:   time.Duration(i) * time.Millisecond,
		}
		if i%10 == 0 {
			rec.Outcome = OutcomeError
			rec.Err = "boom"
		}
		r.Record(rec)
	}
	if got := r.Seen(); got != total {
		t.Errorf("Seen = %d, want %d", got, total)
	}
	counts := r.OutcomeCounts()
	if counts[OutcomeServed] != 90 || counts[OutcomeError] != 10 {
		t.Errorf("OutcomeCounts = %v, want 90 served / 10 error", counts)
	}

	// The slowest-3 reservoir must hold exactly the true top 3 by Total.
	slow := r.Slowest(3)
	if len(slow) != 3 {
		t.Fatalf("Slowest(3) returned %d records", len(slow))
	}
	for i, want := range []time.Duration{100 * time.Millisecond, 99 * time.Millisecond, 98 * time.Millisecond} {
		if slow[i].Total != want {
			t.Errorf("Slowest[%d].Total = %v, want %v", i, slow[i].Total, want)
		}
	}

	// Retention is the union of three bounded reservoirs: at most
	// Size (sampled) + Size (errors) + SlowN records, deduplicated.
	recs := r.Records()
	if len(recs) > 8+8+3 {
		t.Errorf("retained %d records, want <= 19", len(recs))
	}
	seen := map[uint64]bool{}
	errs := 0
	for i, rec := range recs {
		if seen[rec.Seq] {
			t.Errorf("Records returned Seq %d twice", rec.Seq)
		}
		seen[rec.Seq] = true
		if i > 0 && recs[i-1].Seq < rec.Seq {
			t.Error("Records not newest-first")
		}
		if rec.Outcome == OutcomeError {
			errs++
		}
	}
	// The error reservoir (cap 8) retains the 8 most recent of the 10
	// errors even though the sampled ring has long evicted them.
	if errs < 8 {
		t.Errorf("only %d errored records retained, want 8", errs)
	}

	// Duration histograms: one series per (alg, outcome), counts adding
	// up to the lifetime totals.
	durs := r.Durations()
	if len(durs) != 2 {
		t.Fatalf("Durations returned %d series, want 2", len(durs))
	}
	if durs[0].Outcome != OutcomeError || durs[1].Outcome != OutcomeServed {
		t.Errorf("Durations not sorted by outcome: %v, %v", durs[0].Outcome, durs[1].Outcome)
	}
	if got := durs[0].Hist.Count + durs[1].Hist.Count; got != total {
		t.Errorf("duration histogram counts sum to %d, want %d", got, total)
	}
}

func TestFlightRecorderSampling(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Size: 100, SampleEvery: 10})
	for i := 0; i < 40; i++ {
		r.Record(FlightRecord{Alg: "CE", Outcome: OutcomeServed})
	}
	// Every 10th query lands in the sampled ring; slow reservoir (default
	// 16) keeps the rest reachable, so count ring membership via Seq.
	recs := r.Records()
	sampled := 0
	for _, rec := range recs {
		if rec.Seq%10 == 0 {
			sampled++
		}
	}
	if sampled != 4 {
		t.Errorf("sampled %d of 40 with stride 10, want 4", sampled)
	}
	if r.Seen() != 40 {
		t.Errorf("Seen = %d, want 40 (sampling must not hide queries from totals)", r.Seen())
	}
	if r.OutcomeCounts()[OutcomeServed] != 40 {
		t.Errorf("OutcomeCounts = %v, want all 40", r.OutcomeCounts())
	}
}

// TestFlightRecorderConcurrent hammers one recorder from many goroutines;
// run under -race. Totals must come out exact.
func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Size: 32, SlowN: 8, SampleEvery: 3})
	const goroutines, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				outcome := OutcomeServed
				if i%7 == 0 {
					outcome = OutcomeCancelled
				}
				r.Record(FlightRecord{
					Alg:     "LBC",
					Outcome: outcome,
					Total:   time.Duration(g*each+i) * time.Microsecond,
				})
				if i%31 == 0 {
					r.Records()
					r.Slowest(4)
					r.Durations()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Seen(); got != goroutines*each {
		t.Errorf("Seen = %d, want %d", got, goroutines*each)
	}
	var sum uint64
	for _, v := range r.OutcomeCounts() {
		sum += v
	}
	if sum != goroutines*each {
		t.Errorf("outcome counts sum to %d, want %d", sum, goroutines*each)
	}
	var durTotal uint64
	for _, d := range r.Durations() {
		durTotal += d.Hist.Count
	}
	if durTotal != goroutines*each {
		t.Errorf("duration histograms count %d, want %d", durTotal, goroutines*each)
	}
}

// TestClassify pins the one outcome classifier: nil errors split on the
// abandoned flag, known errors match through wrapping in table order, and
// anything else is a query-level error.
func TestClassify(t *testing.T) {
	errFull := errors.New("full")
	errClosed := errors.New("closed")
	known := []ErrOutcome{
		{Err: errFull, Outcome: OutcomeSaturated},
		{Err: errClosed, Outcome: OutcomeClosed},
		{Err: context.Canceled, Outcome: OutcomeCancelled},
		{Err: context.DeadlineExceeded, Outcome: OutcomeCancelled},
	}
	for _, c := range []struct {
		err       error
		abandoned bool
		want      string
	}{
		{nil, false, OutcomeServed},
		{nil, true, OutcomeAbandoned},
		{errFull, false, OutcomeSaturated},
		{fmt.Errorf("submit: %w", errClosed), false, OutcomeClosed},
		{fmt.Errorf("query 7: %w", context.DeadlineExceeded), false, OutcomeCancelled},
		{context.Canceled, true, OutcomeCancelled},
		{errors.New("no such edge"), false, OutcomeError},
	} {
		if got := Classify(c.err, c.abandoned, known); got != c.want {
			t.Errorf("Classify(%v, abandoned=%v) = %q, want %q", c.err, c.abandoned, got, c.want)
		}
	}
}
