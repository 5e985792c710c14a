package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestTraceIDString(t *testing.T) {
	cases := []struct {
		id   TraceID
		want string
	}{
		{0, ""},
		{1, "t00000001"},
		{0xdeadbeef, "tdeadbeef"},
		{0x1_0000_0001, "t100000001"},
	}
	for _, c := range cases {
		if got := c.id.String(); got != c.want {
			t.Errorf("TraceID(%d).String() = %q, want %q", c.id, got, c.want)
		}
		if c.id == 0 {
			continue
		}
		back, ok := ParseTraceID(c.want)
		if !ok || back != c.id {
			t.Errorf("ParseTraceID(%q) = %v, %t; want %v", c.want, back, ok, c.id)
		}
	}
	for _, bad := range []string{"", "t", "t0", "x00000001", "t00zz0001", "42"} {
		if id, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted as %v", bad, id)
		}
	}
}

// TestNilTraceSafe pins the zero-overhead contract's safety half: every
// method of a nil *Trace and a nil *Inflight is a no-op, and the guarded
// stopwatch pattern never reads the clock.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != 0 || tr.IDNum() != 0 {
		t.Errorf("nil trace has non-zero ID")
	}
	tr.SetPhase(Phase("x"))
	tr.ClearPhase()
	tr.SetNodes(7)
	tr.SetRole(RoleRun)
	tr.SetWaiting("k", 3)
	tr.AddSpan(Span{Name: "x", Start: time.Now()})
	tr.SpanSince("x", time.Now())
	if t0 := tr.Stopwatch(); !t0.IsZero() {
		t.Errorf("nil trace stopwatch read the clock: %v", t0)
	}
	tr.Finish(time.Second)
	if got := tr.Spans(); got != nil {
		t.Errorf("nil trace has spans: %v", got)
	}

	var r *Inflight
	if tr := r.Begin("CE", 2); tr != nil {
		t.Errorf("nil registry began a trace")
	}
	r.Remove(nil)
	if s := r.Snapshot(); s != nil {
		t.Errorf("nil registry snapshot: %v", s)
	}
}

// TestNilTraceZeroAlloc pins the other half: the untraced per-event
// sites allocate nothing.
func TestNilTraceZeroAlloc(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		tr.SetPhase(Phase("p"))
		tr.SetNodes(1)
		tr.SetRole(RoleRun)
		t0 := tr.Stopwatch()
		tr.SpanSince(SpanRestore, t0)
		tr.AddSpan(Span{})
		tr.Finish(0)
	})
	if allocs != 0 {
		t.Errorf("nil-trace event sites allocate %.1f per run, want 0", allocs)
	}
}

func TestTraceFinish(t *testing.T) {
	r := NewInflight()
	tr := r.Begin("CE", 3)
	if tr.ID() == 0 {
		t.Fatalf("trace has zero ID")
	}
	t0 := tr.Stopwatch()
	time.Sleep(time.Millisecond)
	tr.SpanSince("ce.filter", t0)
	tr.Finish(5 * time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("want phase+io+root spans, got %v", spans)
	}
	iosp, ok := findSpan(spans, SpanIO)
	if !ok || iosp.Dur != 5*time.Millisecond {
		t.Errorf("io span %+v, want 5ms", iosp)
	}
	root, ok := findSpan(spans, SpanQuery)
	if !ok {
		t.Fatalf("no root span")
	}
	if root.Dur < 6*time.Millisecond {
		t.Errorf("root span %v should cover the 1ms wall plus 5ms io", root.Dur)
	}
	phase, _ := findSpan(spans, "ce.filter")
	if sum := phase.Dur + iosp.Dur; sum < 6*time.Millisecond || sum > root.Dur {
		t.Errorf("leaf sum %v outside (6ms, root %v)", sum, root.Dur)
	}

	// Finish is idempotent and seals the span list.
	tr.Finish(time.Hour)
	tr.AddSpan(Span{Name: "late", Start: time.Now()})
	if got := tr.Spans(); len(got) != 3 {
		t.Errorf("post-finish mutation changed spans: %v", got)
	}
}

func TestTraceSpanCap(t *testing.T) {
	r := NewInflight()
	tr := r.Begin("LBC", 1)
	for i := 0; i < MaxLeafSpans+100; i++ {
		tr.AddSpan(Span{Name: "lbc.probe", Start: time.Now()})
	}
	tr.Finish(time.Millisecond)
	spans := tr.Spans()
	// The cap bounds leaf spans; Finish still appends io + root.
	if len(spans) != MaxLeafSpans+2 {
		t.Errorf("got %d spans, want cap %d plus io and root", len(spans), MaxLeafSpans)
	}
}

func TestInflightRegistry(t *testing.T) {
	r := NewInflight()
	a := r.Begin("CE", 1)
	b := r.Begin("LBC", 2)
	if a.ID() == b.ID() {
		t.Fatalf("duplicate trace IDs")
	}
	b.SetPhase(Phase("lbc.probe"))
	b.SetNodes(42)
	b.SetWaiting("dijkstra/f0/e1+0", a.ID())

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	if snap[0].TraceID != a.ID().String() || snap[1].TraceID != b.ID().String() {
		t.Errorf("snapshot not in admission order: %+v", snap)
	}
	q := snap[1]
	if q.Phase != "lbc.probe" || q.NodesExpanded != 42 {
		t.Errorf("progress cell not visible: %+v", q)
	}
	if q.Role != RoleWait || q.WaitingOn != a.ID().String() || q.FlightKey != "dijkstra/f0/e1+0" {
		t.Errorf("wait state not visible: %+v", q)
	}

	// SetRole after a wait clears the flight fields.
	b.SetRole(RoleShare)
	q = r.Snapshot()[1]
	if q.Role != RoleShare || q.WaitingOn != "" || q.FlightKey != "" {
		t.Errorf("share role kept wait fields: %+v", q)
	}

	a.Finish(0)
	r.Remove(a)
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].TraceID != b.ID().String() {
		t.Errorf("removal left %+v", snap)
	}
	r.Remove(a) // idempotent
	r.Remove(b)
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Errorf("registry not empty: %+v", snap)
	}
}

func TestWriteTraceEventsOrdering(t *testing.T) {
	base := time.Now()
	rec := FlightRecord{
		TraceID: "t00000002",
		Alg:     "CE",
		Spans: []Span{
			{Name: "ce.filter", Start: base.Add(time.Millisecond), Dur: 2 * time.Millisecond},
			{Name: SpanQuery, Start: base, Dur: 10 * time.Millisecond},
			{Name: SpanFlightWait, Start: base.Add(4 * time.Millisecond), Dur: 3 * time.Millisecond, Ref: "t00000001", Key: "dijkstra/f0/e9+0"},
		},
	}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var xs []int
	for i, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			xs = append(xs, i)
		}
	}
	if len(xs) != 3 {
		t.Fatalf("want 3 complete events, got %d", len(xs))
	}
	// Sorted by start: the root (ts 0) first, then the phase, then the wait.
	first := file.TraceEvents[xs[0]]
	if first.Name != SpanQuery || first.Ts != 0 {
		t.Errorf("first complete event %+v, want the root at ts 0", first)
	}
	for _, i := range xs {
		ev := file.TraceEvents[i]
		if ev.Name == SpanFlightWait {
			if ev.Args["leader_trace"] != "t00000001" || ev.Args["flight_key"] != "dijkstra/f0/e9+0" {
				t.Errorf("flight.wait args %+v", ev.Args)
			}
			if ev.Ts != 4000 || ev.Dur != 3000 {
				t.Errorf("flight.wait ts/dur %v/%v, want 4000/3000 us", ev.Ts, ev.Dur)
			}
		}
	}

	if err := WriteTraceEvents(&buf, FlightRecord{TraceID: "t00000003"}); err == nil {
		t.Errorf("record without spans exported")
	}
	if err := WriteTraceEvents(&buf, FlightRecord{Spans: rec.Spans}); err == nil {
		t.Errorf("record without trace ID exported")
	}
}

func TestFlightRecorderFind(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Size: 4})
	r.Record(FlightRecord{Alg: "CE", TraceID: "t00000001"})
	r.Record(FlightRecord{Alg: "LBC"})
	r.Record(FlightRecord{Alg: "EDC", TraceID: "t00000003"})

	rec, ok := r.Find("t00000003")
	if !ok || rec.Alg != "EDC" {
		t.Errorf("Find(t00000003) = %+v, %t", rec, ok)
	}
	if _, ok := r.Find("t000000ff"); ok {
		t.Errorf("found a record for an unknown trace")
	}
	if _, ok := r.Find(""); ok {
		t.Errorf("empty trace ID matched a record")
	}
	var nilRec *FlightRecorder
	if _, ok := nilRec.Find("t00000001"); ok {
		t.Errorf("nil recorder found a record")
	}
}

// findSpan returns the first span with the given name, or false.
func findSpan(spans []Span, name string) (Span, bool) {
	for _, s := range spans {
		if s.Name == name {
			return s, true
		}
	}
	return Span{}, false
}
