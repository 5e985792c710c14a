package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one admitted query for the lifetime of its engine's
// in-flight registry. IDs are assigned from a process-local counter, so
// they are unique within a registry and never reused; the zero value means
// "untraced".
type TraceID uint64

// String renders the ID in its canonical form ("t00000001"), the form
// accepted by /debug/trace?id= and stored in FlightRecord.TraceID. The
// zero ID renders as the empty string.
func (id TraceID) String() string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("t%08x", uint64(id))
}

// ParseTraceID parses the canonical form back into an ID; ok is false for
// anything String did not produce.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) < 2 || s[0] != 't' {
		return 0, false
	}
	n, err := strconv.ParseUint(s[1:], 16, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return TraceID(n), true
}

// Span names outside the algorithm phases. Phase spans use the Phase
// string ("ce.filter", "lbc.probe", ...) as their name.
const (
	// SpanQuery is the root span: admission (or engine entry) to
	// finalization. Every other span nests inside it.
	SpanQuery = "query"
	// SpanQueueWait is the pool admission wait: submission to worker
	// checkout. Only queries submitted through a Pool carry it.
	SpanQueueWait = "pool.queue_wait"
	// SpanFlightWait is a blocked single-flight subscription: the span's
	// Ref names the leader's trace ID and Key the flight key waited on.
	SpanFlightWait = "flight.wait"
	// SpanRestore is a wavefront snapshot restore (from a concurrent
	// leader's publish or the at-rest distance cache).
	SpanRestore = "wavefront.restore"
	// SpanIO is the modeled disk time (pages faulted x disk latency),
	// appended at finalization after the measured spans; it is the
	// simulated component of the recorded total response time.
	SpanIO = "io.modeled"
)

// Live roles of a traced query, as reported by the in-flight registry.
const (
	// RoleQueued: submitted, waiting for a pool worker.
	RoleQueued = "queued"
	// RoleRun: executing on a worker (or directly on an engine).
	RoleRun = "run"
	// RoleLead: holds at least one wavefront leadership ticket.
	RoleLead = "lead"
	// RoleShare: resumed a concurrent leader's published wavefront.
	RoleShare = "share"
	// RoleWait: blocked on a foreign leader's flight right now.
	RoleWait = "wait"
	// RoleDone: finalized; the entry is about to leave the registry.
	RoleDone = "done"
)

// Span is one timestamped interval of a traced query's execution: a queue
// wait, a flight wait (Ref names the leader's trace ID), a snapshot
// restore, an algorithm phase, the modeled I/O, or the root query span.
type Span struct {
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	// Ref names a causally related trace: for flight.wait spans, the
	// trace ID of the leader whose expansion this query blocked on.
	Ref string `json:"ref,omitempty"`
	// Key is the single-flight key a flight.wait span blocked on.
	Key string `json:"key,omitempty"`
	// Pages and Nodes carry a phase span's work attribution (as in
	// PhaseStat).
	Pages int64 `json:"pages,omitempty"`
	Nodes int   `json:"nodes,omitempty"`
}

// Trace is one query's causal trace: an append-only span list plus a
// lock-free progress cell the /debug/inflight handler reads while the
// query runs. A Trace is created by an Inflight registry at admission and
// finalized exactly once; the span list then lands in the query's
// FlightRecord.
//
// All methods are safe on a nil *Trace (the untraced default costs one
// pointer check per call site) and safe for concurrent use: the owning
// query appends spans while HTTP handlers snapshot the progress cell.
type Trace struct {
	id        TraceID
	alg       string
	numPoints int
	start     time.Time

	// The progress cell: written by the query's goroutine, read lock-free
	// by the in-flight snapshot.
	phase     atomic.Pointer[string]
	nodes     atomic.Int64
	role      atomic.Pointer[string]
	flightKey atomic.Pointer[string]
	waitingOn atomic.Uint64

	mu    sync.Mutex
	spans []Span
	done  bool
}

// ID returns the trace's identifier (zero on a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// IDNum is ID as a raw uint64, the form distcache's in-flight entries
// carry (it does not import obs).
func (t *Trace) IDNum() uint64 { return uint64(t.ID()) }

// Start returns the trace's creation (admission) time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// SetPhase publishes the phase the query is currently inside.
func (t *Trace) SetPhase(p Phase) {
	if t == nil {
		return
	}
	s := string(p)
	t.phase.Store(&s)
}

// ClearPhase publishes "no phase open".
func (t *Trace) ClearPhase() {
	if t == nil {
		return
	}
	t.phase.Store(nil)
}

// SetNodes publishes the query's running node-settlement total.
func (t *Trace) SetNodes(n int) {
	if t == nil {
		return
	}
	t.nodes.Store(int64(n))
}

// SetRole publishes the query's live role (Role* constants) and clears
// any flight-wait details a previous SetWaiting published.
func (t *Trace) SetRole(role string) {
	if t == nil {
		return
	}
	// Copy into a local declared after the nil check: taking the
	// parameter's address directly would heap-allocate it at function
	// entry, charging the untraced path one allocation per call.
	r := role
	t.role.Store(&r)
	t.flightKey.Store(nil)
	t.waitingOn.Store(0)
}

// SetWaiting publishes that the query is blocked on a foreign flight:
// role becomes RoleWait, with the flight key and the leader's trace ID
// readable by the in-flight snapshot.
func (t *Trace) SetWaiting(key string, leader TraceID) {
	if t == nil {
		return
	}
	role := RoleWait
	k := key // see SetRole for why the copy precedes the address-of
	t.role.Store(&role)
	t.flightKey.Store(&k)
	t.waitingOn.Store(uint64(leader))
}

// MaxLeafSpans bounds one trace's recorded leaf spans. Iterative
// algorithms re-enter their phases once per skyline point, so a large
// progressive query can emit thousands of phase spans; past the bound
// further leaf spans are dropped (the root and modeled-I/O spans Finish
// appends are exempt), keeping the flight recorder's per-record memory
// bounded.
const MaxLeafSpans = 4096

// AddSpan appends one finished span. No-op after Finish (late spans from
// a racing finalization path are dropped rather than mutating a record
// already handed out), on spans with a zero start (the guard callers use
// to skip timing work when untraced), and past MaxLeafSpans.
func (t *Trace) AddSpan(s Span) {
	if t == nil || s.Start.IsZero() {
		return
	}
	t.mu.Lock()
	if !t.done && len(t.spans) < MaxLeafSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// SpanSince appends a span covering t0..now. A zero t0 is a no-op, so
// callers time unconditionally with a guarded stopwatch:
//
//	t0 := tr.Stopwatch()       // zero time when untraced
//	...work...
//	tr.SpanSince(name, t0)
func (t *Trace) SpanSince(name string, t0 time.Time) {
	if t == nil || t0.IsZero() {
		return
	}
	t.AddSpan(Span{Name: name, Start: t0, Dur: time.Since(t0)})
}

// Stopwatch returns time.Now() on a live trace and the zero time on nil,
// so untraced queries never read the clock.
func (t *Trace) Stopwatch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Finish closes the trace: the modeled I/O span (when io > 0) and the
// root query span (admission to now) are appended, the live role becomes
// RoleDone, and later AddSpan calls are ignored. Idempotent.
func (t *Trace) Finish(io time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		now := time.Now()
		if io > 0 {
			// The simulated disk component, laid after the measured wall
			// time so the trace's spans sum to the recorded total.
			t.spans = append(t.spans, Span{Name: SpanIO, Start: now, Dur: io})
		}
		t.spans = append(t.spans, Span{Name: SpanQuery, Start: t.start, Dur: now.Sub(t.start) + io})
		t.done = true
	}
	t.mu.Unlock()
	t.SetRole(RoleDone)
	t.ClearPhase()
}

// Spans returns a copy of the recorded spans in append order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// InflightQuery is one live entry of the in-flight registry: the query's
// identity plus its progress cell at snapshot time.
type InflightQuery struct {
	TraceID   string        `json:"trace_id"`
	Alg       string        `json:"alg"`
	NumPoints int           `json:"num_points"`
	Started   time.Time     `json:"started"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	// Phase is the algorithm phase currently open, empty between phases.
	Phase string `json:"phase,omitempty"`
	// NodesExpanded is the running settlement total (updated on the
	// searchers' progress stride, so it trails the true count slightly).
	NodesExpanded int64 `json:"nodes_expanded"`
	// Role is the query's live role (queued, run, lead, share, wait,
	// done); for wait, FlightKey and WaitingOn name the flight blocked on
	// and its leader's trace ID.
	Role      string `json:"role"`
	FlightKey string `json:"flight_key,omitempty"`
	WaitingOn string `json:"waiting_on,omitempty"`
}

// Inflight is the registry of currently-running traced queries. One
// registry is shared engine-wide (across clones and a pool's workers,
// like the flight recorder); queries register at admission and leave at
// finalization. A nil *Inflight disables tracing: Begin returns nil and
// the per-query cost collapses to the nil-Trace checks.
type Inflight struct {
	seq atomic.Uint64
	mu  sync.Mutex
	m   map[TraceID]*Trace
}

// NewInflight builds an empty registry.
func NewInflight() *Inflight {
	return &Inflight{m: make(map[TraceID]*Trace)}
}

// Begin creates and registers a trace for one admitted query. Nil on a
// nil registry.
func (r *Inflight) Begin(alg string, numPoints int) *Trace {
	if r == nil {
		return nil
	}
	t := &Trace{
		id:        TraceID(r.seq.Add(1)),
		alg:       alg,
		numPoints: numPoints,
		start:     time.Now(),
	}
	t.SetRole(RoleRun)
	r.mu.Lock()
	r.m[t.id] = t
	r.mu.Unlock()
	return t
}

// Remove deregisters a finished trace. Safe on nil registry or trace,
// and idempotent.
func (r *Inflight) Remove(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	delete(r.m, t.id)
	r.mu.Unlock()
}

// Snapshot returns the live queries ordered by trace ID (admission
// order). Nil on a nil registry.
func (r *Inflight) Snapshot() []InflightQuery {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	traces := make([]*Trace, 0, len(r.m))
	for _, t := range r.m {
		traces = append(traces, t)
	}
	r.mu.Unlock()
	sort.Slice(traces, func(i, j int) bool { return traces[i].id < traces[j].id })
	now := time.Now()
	out := make([]InflightQuery, len(traces))
	for i, t := range traces {
		q := InflightQuery{
			TraceID:       t.id.String(),
			Alg:           t.alg,
			NumPoints:     t.numPoints,
			Started:       t.start,
			Elapsed:       now.Sub(t.start),
			NodesExpanded: t.nodes.Load(),
			WaitingOn:     TraceID(t.waitingOn.Load()).String(),
		}
		if p := t.phase.Load(); p != nil {
			q.Phase = *p
		}
		if role := t.role.Load(); role != nil {
			q.Role = *role
		}
		if k := t.flightKey.Load(); k != nil {
			q.FlightKey = *k
		}
		out[i] = q
	}
	return out
}

// SumSpans totals the durations of the non-overlapping leaf spans —
// everything except the root query span — the decomposition the trace
// asserts sums (within scheduling tolerance) to the recorded total
// response time.
func SumSpans(spans []Span) time.Duration {
	var sum time.Duration
	for _, s := range spans {
		if s.Name == SpanQuery || s.Name == SpanQueueWait {
			// The root covers everything; the queue wait precedes the
			// engine's response-time clock.
			continue
		}
		sum += s.Dur
	}
	return sum
}

// FindSpan returns the first span with the given name, or false.
func FindSpan(spans []Span, name string) (Span, bool) {
	for _, s := range spans {
		if s.Name == name {
			return s, true
		}
	}
	return Span{}, false
}

// spanCategory buckets a span name for the trace-event export.
func spanCategory(name string) string {
	switch name {
	case SpanQuery:
		return "query"
	case SpanQueueWait, SpanFlightWait:
		return "wait"
	case SpanRestore:
		return "restore"
	case SpanIO:
		return "io"
	default:
		if strings.Contains(name, ".") {
			return "phase"
		}
		return "span"
	}
}
