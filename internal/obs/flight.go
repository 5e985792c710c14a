package obs

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// Query outcomes: how a finished submission ended. Classify decides the
// outcome once, when the submission's FlightRecord is built; every
// consumer of the record buckets that one value:
//
//	record outcome   pool counter   window bucket
//	served           Served         Served
//	abandoned        Served         Served
//	error            Served         Errors
//	cancelled        Cancelled      Cancelled
//	saturated        Saturated      Saturated
//	closed           Closed         Closed
//
// The pool's Served covers three outcomes because a worker did the work
// whether the query completed, failed a query-level check, or was an
// iterator abandoned before exhaustion; the window splits errors out
// because the live error rate is the first thing an operator watches.
const (
	// OutcomeServed: the query ran to completion (iterators: drained to
	// exhaustion).
	OutcomeServed = "served"
	// OutcomeError: the query failed with a query-level error
	// (validation, unreachable topology).
	OutcomeError = "error"
	// OutcomeCancelled: the query ended with a context cancellation or
	// deadline, while waiting for a worker or mid-expansion.
	OutcomeCancelled = "cancelled"
	// OutcomeAbandoned: a progressive iterator was closed before
	// exhaustion without an error.
	OutcomeAbandoned = "abandoned"
	// OutcomeSaturated: the pool rejected the submission at admission.
	OutcomeSaturated = "saturated"
	// OutcomeClosed: the submission arrived at a closed pool.
	OutcomeClosed = "closed"
)

// ErrOutcome files submissions that failed with Err (per errors.Is) under
// Outcome.
type ErrOutcome struct {
	Err     error
	Outcome string
}

// Classify names how a finished submission ended. A nil err is served, or
// abandoned for an iterator closed before exhaustion; otherwise the first
// entry of known that err matches decides, and an error none of them
// matches is a query-level error.
func Classify(err error, abandoned bool, known []ErrOutcome) string {
	if err == nil {
		if abandoned {
			return OutcomeAbandoned
		}
		return OutcomeServed
	}
	for _, k := range known {
		if errors.Is(err, k.Err) {
			return k.Outcome
		}
	}
	return OutcomeError
}

// FlightConfig sizes a FlightRecorder.
type FlightConfig struct {
	// Size caps the sampled ring of all queries and, separately, the
	// errored/cancelled reservoir. Zero or negative disables the
	// recorder (NewFlightRecorder returns nil).
	Size int
	// SlowN caps the slowest-query reservoir (default 16).
	SlowN int
	// SampleEvery records every k-th query into the sampled ring
	// (default 1 — every query). The slow and error reservoirs are not
	// sampled: they retain their queries regardless.
	SampleEvery int
}

// DefaultFlightSlowN is the slowest-query reservoir capacity when
// FlightConfig.SlowN is zero.
const DefaultFlightSlowN = 16

// FlightRecord is the one record of a finished submission: what the query
// asked for, how it ended, and the full work accounting the paper's
// evaluation measures per run — response times, per-phase breakdown,
// node/page/cache counters. It is built once, at finalization, and
// everything that accounts for submissions consumes it: the flight
// recorder's reservoirs and duration histograms, the pool's outcome
// counters and per-worker buffer totals, and the rolling Window.
type FlightRecord struct {
	// Seq is the recorder-assigned sequence number, 1-based in record
	// order; When is the finalization time.
	Seq  uint64    `json:"seq"`
	When time.Time `json:"when"`
	// Alg and NumPoints identify the query shape; the flags mirror the
	// request's configuration.
	Alg       string `json:"alg"`
	NumPoints int    `json:"num_points"`
	UseAttrs  bool   `json:"use_attrs,omitempty"`
	Alternate bool   `json:"alternate,omitempty"`
	Source    int    `json:"source,omitempty"`
	// Outcome is one of the Outcome* constants; Err carries the error
	// text for error/cancelled outcomes.
	Outcome string `json:"outcome"`
	Err     string `json:"err,omitempty"`
	// Total and Initial are the query's response times under the
	// engine's simulated disk (zero for submissions that never reached a
	// worker).
	Total   time.Duration `json:"total_ns"`
	Initial time.Duration `json:"initial_ns"`
	// Wall is the wall time from admission to completion, queue wait
	// included: what the caller waited, as opposed to the modeled Total.
	// Zero when nobody timed the submission (a bare engine without a
	// recorder).
	Wall time.Duration `json:"wall_ns,omitempty"`
	// Phases is the per-phase work breakdown; the recorder forces phase
	// collection on the queries it observes.
	Phases []PhaseStat `json:"phases,omitempty"`
	// Work counters, as in the public Stats.
	Candidates      int   `json:"candidates"`
	NodesExpanded   int   `json:"nodes_expanded"`
	NetworkPages    int64 `json:"network_pages"`
	NetworkGets     int64 `json:"network_gets"`
	RTreeNodes      int64 `json:"rtree_nodes,omitempty"`
	DistCacheHits   int   `json:"distcache_hits,omitempty"`
	DistCacheMisses int   `json:"distcache_misses,omitempty"`
	WavefrontLeads  int   `json:"wavefront_leads,omitempty"`
	WavefrontShares int   `json:"wavefront_shares,omitempty"`
	// TraceID and Spans are present when the query ran with causal
	// tracing enabled: the trace identifier (canonical TraceID form) and
	// the timestamped span decomposition — queue wait, flight waits
	// naming the leader's trace ID, snapshot restores, phase spans, the
	// modeled I/O and the root query span. Exportable as Chrome
	// trace-event JSON via WriteTraceEvents.
	TraceID string `json:"trace_id,omitempty"`
	Spans   []Span `json:"spans,omitempty"`
}

// DurationSnapshot is one (algorithm, outcome) series of the query
// duration histogram family.
type DurationSnapshot struct {
	Alg     string
	Outcome string
	Hist    HistogramSnapshot
}

// FlightRecorder is the query flight recorder: a concurrency-safe,
// bounded, in-memory log of per-query FlightRecords. Three reservoirs
// together answer the questions a latency investigation starts with:
//
//   - a sampled ring of all queries (what does normal traffic look
//     like?),
//   - the slowest-N queries ever seen (what does the tail look like?),
//   - every errored or cancelled query, ring-bounded (what failed?).
//
// It also feeds the per-(algorithm, outcome) duration histograms behind
// the roadskyline_query_duration_seconds Prometheus family. A nil
// *FlightRecorder is the disabled state: every method is a cheap no-op,
// so callers record unconditionally.
type FlightRecorder struct {
	size, slowN, sampleEvery int

	mu      sync.Mutex
	seq     uint64
	ring    []FlightRecord // sampled stream, ring buffer
	ringPos int
	errs    []FlightRecord // errored/cancelled reservoir, ring buffer
	errPos  int
	slow    []FlightRecord // slowest-N, min-heap ordered by Total
	counts  map[string]uint64
	durs    map[durKey]*Histogram
}

type durKey struct{ alg, outcome string }

// NewFlightRecorder builds a recorder, or returns nil (the disabled
// recorder) when cfg.Size is zero or negative.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Size <= 0 {
		return nil
	}
	if cfg.SlowN <= 0 {
		cfg.SlowN = DefaultFlightSlowN
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	return &FlightRecorder{
		size:        cfg.Size,
		slowN:       cfg.SlowN,
		sampleEvery: cfg.SampleEvery,
		counts:      make(map[string]uint64, 6),
		durs:        make(map[durKey]*Histogram, 8),
	}
}

// Record files one finished query. The record's Seq and (when unset)
// When are assigned by the recorder. Safe for concurrent use; a no-op on
// a nil recorder.
func (r *FlightRecorder) Record(rec FlightRecord) {
	if r == nil {
		return
	}
	if rec.When.IsZero() {
		rec.When = time.Now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rec.Seq = r.seq
	r.counts[rec.Outcome]++

	k := durKey{rec.Alg, rec.Outcome}
	h := r.durs[k]
	if h == nil {
		h = new(Histogram)
		r.durs[k] = h
	}
	h.Observe(rec.Total)

	if rec.Outcome == OutcomeError || rec.Outcome == OutcomeCancelled {
		pushRing(&r.errs, &r.errPos, r.size, rec)
	}
	r.pushSlow(rec)
	if r.sampleEvery == 1 || r.seq%uint64(r.sampleEvery) == 0 {
		pushRing(&r.ring, &r.ringPos, r.size, rec)
	}
}

// pushRing appends rec to a ring of capacity size, overwriting the
// oldest entry once full. pos is the next overwrite position.
func pushRing(ring *[]FlightRecord, pos *int, size int, rec FlightRecord) {
	if len(*ring) < size {
		*ring = append(*ring, rec)
		return
	}
	(*ring)[*pos] = rec
	*pos = (*pos + 1) % size
}

// pushSlow maintains the slowest-N reservoir as a min-heap on Total: a
// new record displaces the fastest retained one once the reservoir is
// full.
func (r *FlightRecorder) pushSlow(rec FlightRecord) {
	if len(r.slow) < r.slowN {
		r.slow = append(r.slow, rec)
		// Sift up.
		for i := len(r.slow) - 1; i > 0; {
			p := (i - 1) / 2
			if r.slow[p].Total <= r.slow[i].Total {
				break
			}
			r.slow[p], r.slow[i] = r.slow[i], r.slow[p]
			i = p
		}
		return
	}
	if rec.Total <= r.slow[0].Total {
		return
	}
	r.slow[0] = rec
	// Sift down.
	for i := 0; ; {
		l, rt, min := 2*i+1, 2*i+2, i
		if l < len(r.slow) && r.slow[l].Total < r.slow[min].Total {
			min = l
		}
		if rt < len(r.slow) && r.slow[rt].Total < r.slow[min].Total {
			min = rt
		}
		if min == i {
			break
		}
		r.slow[i], r.slow[min] = r.slow[min], r.slow[i]
		i = min
	}
}

// Seen returns the number of queries recorded over the recorder's
// lifetime (retention is bounded; Seen is not). Zero on a nil recorder.
func (r *FlightRecorder) Seen() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// OutcomeCounts returns the lifetime recorded-query counts by outcome.
// Nil on a nil recorder.
func (r *FlightRecorder) OutcomeCounts() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]uint64, len(r.counts))
	for k, v := range r.counts {
		m[k] = v
	}
	return m
}

// Records returns every retained record — the union of the sampled ring,
// the slowest-N reservoir and the error reservoir, deduplicated — newest
// first. Nil on a nil recorder.
func (r *FlightRecorder) Records() []FlightRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[uint64]bool, len(r.ring)+len(r.slow)+len(r.errs))
	out := make([]FlightRecord, 0, len(r.ring)+len(r.slow)+len(r.errs))
	for _, set := range [][]FlightRecord{r.ring, r.slow, r.errs} {
		for _, rec := range set {
			if !seen[rec.Seq] {
				seen[rec.Seq] = true
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Find returns the retained record carrying the given trace ID (canonical
// "t..." form). Retention is bounded, so a trace that was recorded may no
// longer be found once its record rotates out of every reservoir. False
// on a nil recorder or an unknown ID.
func (r *FlightRecorder) Find(traceID string) (FlightRecord, bool) {
	if r == nil || traceID == "" {
		return FlightRecord{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, set := range [][]FlightRecord{r.ring, r.slow, r.errs} {
		for _, rec := range set {
			if rec.TraceID == traceID {
				return rec, true
			}
		}
	}
	return FlightRecord{}, false
}

// Slowest returns up to n retained records ordered by Total descending.
// The slowest-N reservoir guarantees the true top-SlowN of the
// recorder's lifetime are among them. Nil on a nil recorder.
func (r *FlightRecorder) Slowest(n int) []FlightRecord {
	recs := r.Records()
	if recs == nil {
		return nil
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Total != recs[j].Total {
			return recs[i].Total > recs[j].Total
		}
		return recs[i].Seq > recs[j].Seq
	})
	if n > 0 && len(recs) > n {
		recs = recs[:n]
	}
	return recs
}

// Durations returns the per-(algorithm, outcome) duration histogram
// snapshots, sorted by algorithm then outcome. Nil on a nil recorder.
func (r *FlightRecorder) Durations() []DurationSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := make([]durKey, 0, len(r.durs))
	for k := range r.durs {
		keys = append(keys, k)
	}
	hists := make([]*Histogram, 0, len(keys))
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].alg != keys[j].alg {
			return keys[i].alg < keys[j].alg
		}
		return keys[i].outcome < keys[j].outcome
	})
	for _, k := range keys {
		hists = append(hists, r.durs[k])
	}
	r.mu.Unlock()
	out := make([]DurationSnapshot, len(keys))
	for i, k := range keys {
		out[i] = DurationSnapshot{Alg: k.alg, Outcome: k.outcome, Hist: hists[i].Snapshot()}
	}
	return out
}
