package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNewHistogramValidation(t *testing.T) {
	for _, bad := range [][]time.Duration{
		{time.Second, time.Millisecond},              // decreasing
		{time.Millisecond, time.Millisecond},         // duplicate
		{0, time.Millisecond},                        // non-positive
		{-time.Millisecond, time.Millisecond},        // negative
		{time.Millisecond, time.Second, time.Second}, // duplicate tail
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
	// nil means the default wait buckets.
	h := NewHistogram(nil)
	if got := h.Bounds(); len(got) != len(WaitBuckets) {
		t.Errorf("default bounds = %v, want WaitBuckets", got)
	}
	// The bounds are copied, not aliased.
	mine := []time.Duration{time.Millisecond, time.Second}
	h = NewHistogram(mine)
	mine[0] = time.Hour
	if got := h.Bounds(); got[0] != time.Millisecond {
		t.Errorf("histogram aliased the caller's bounds slice: %v", got)
	}
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (inclusive bound)
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // overflow
	s := h.Snapshot()
	if want := []uint64{2, 3, 3}; fmt.Sprint(s.Buckets) != fmt.Sprint(want) {
		t.Errorf("Buckets = %v, want %v", s.Buckets, want)
	}
	if s.Count != 4 {
		t.Errorf("Count = %d, want 4", s.Count)
	}
	if want := 500*time.Microsecond + time.Millisecond + 5*time.Millisecond + time.Second; s.Sum != want {
		t.Errorf("Sum = %v, want %v", s.Sum, want)
	}
	if len(s.Bounds) != 3 || s.Bounds[0] != time.Millisecond {
		t.Errorf("Bounds = %v", s.Bounds)
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
