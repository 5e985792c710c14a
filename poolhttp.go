package roadskyline

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"roadskyline/internal/obs"
)

// MetricsHandler returns an http.Handler serving the pool's metrics in
// the Prometheus text exposition format (version 0.0.4), which is also
// readable as plain text. Mount it wherever the process serves HTTP:
//
//	http.Handle("/metrics", pool.MetricsHandler())
func (p *Pool) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePoolMetrics(rw, p.PoolMetrics())
	})
}

// sample is one exposition line of a counter or gauge family: labels is
// the rendered label pairs (empty for an unlabeled sample), value an
// integer or a float64 (rendered %d and %g).
type sample struct {
	labels string
	value  any
}

// histogramSeries is one labeled series of a histogram family: labels is
// the rendered label pairs without the trailing le pair (empty for an
// unlabeled family), h the snapshot to render.
type histogramSeries struct {
	labels string
	h      WaitHistogram
}

// family is one metric family of the exposition. Counter and gauge
// families carry samples, histogram families series.
type family struct {
	name, typ, help string
	samples         []sample
	series          []histogramSeries
}

func label(key, value string) string { return fmt.Sprintf("%s=%q", key, value) }

// one is the sample list of an unlabeled single-value family.
func one(value any) []sample { return []sample{{value: value}} }

// metricFamilies lays one snapshot out as the /metrics families, in the
// fixed order they are exposed (so scrapes diff cleanly). The load and
// runtime families exist only when the pool was built with
// PoolConfig.Window / PoolConfig.RuntimeSample, so disabled pools expose
// none of them rather than frozen zeros.
func metricFamilies(m PoolMetrics) []family {
	version, goVersion := BuildInfo()
	perWorker := func(value func(WorkerStats) any) []sample {
		out := make([]sample, len(m.WorkerStats))
		for i, ws := range m.WorkerStats {
			out[i] = sample{fmt.Sprintf("worker=\"%d\"", ws.Worker), value(ws)}
		}
		return out
	}
	var flightOutcomes []sample
	for _, o := range sortedKeys(m.FlightOutcomes) {
		flightOutcomes = append(flightOutcomes, sample{label("outcome", o), m.FlightOutcomes[o]})
	}
	durations := make([]histogramSeries, len(m.Durations))
	for i, d := range m.Durations {
		durations[i] = histogramSeries{label("alg", d.Alg) + "," + label("outcome", d.Outcome), d.Hist}
	}
	fams := []family{
		{name: "roadskyline_build_info", typ: "gauge", help: "Build metadata; the value is always 1.",
			samples: []sample{{label("version", version) + "," + label("go_version", goVersion), 1}}},
		{name: "roadskyline_storage_backend_info", typ: "gauge", help: "Page-file backend serving this pool; the value is always 1.",
			samples: []sample{{label("backend", m.StorageBackend), 1}}},
		{name: "roadskyline_pool_workers", typ: "gauge", help: "Engine clones in the pool.", samples: one(m.Workers)},
		{name: "roadskyline_pool_in_flight", typ: "gauge", help: "Queries holding a worker right now.", samples: one(m.InFlight)},
		{name: "roadskyline_pool_waiting", typ: "gauge", help: "Submissions waiting for an idle worker.", samples: one(m.Waiting)},
		{name: "roadskyline_pool_submitted_total", typ: "counter", help: "Queries handed to the pool.", samples: one(m.Submitted)},
		{name: "roadskyline_pool_queries_total", typ: "counter", help: "Finished submissions by outcome; outcomes sum to submitted once quiescent.",
			samples: []sample{
				{label("outcome", "served"), m.Served},
				{label("outcome", "saturated"), m.Saturated},
				{label("outcome", "cancelled"), m.Cancelled},
				{label("outcome", "closed"), m.Closed},
			}},
		{name: "roadskyline_pool_queue_wait_seconds", typ: "histogram", help: "Time from submission to worker checkout.",
			series: []histogramSeries{{h: m.QueueWait}}},
		{name: "roadskyline_pool_worker_queries_total", typ: "counter", help: "Queries completed per worker.",
			samples: perWorker(func(ws WorkerStats) any { return ws.Queries })},
		{name: "roadskyline_pool_worker_buffer_gets_total", typ: "counter", help: "Logical network page requests per worker.",
			samples: perWorker(func(ws WorkerStats) any { return ws.BufferGets })},
		{name: "roadskyline_pool_worker_buffer_misses_total", typ: "counter", help: "Network page faults per worker; 1 - misses/gets is the buffer hit rate.",
			samples: perWorker(func(ws WorkerStats) any { return ws.BufferMisses })},
		{name: "roadskyline_distcache_lookups_total", typ: "counter", help: "Distance-cache lookups by result, shared across all workers.",
			samples: []sample{{label("result", "hit"), m.DistCache.Hits}, {label("result", "miss"), m.DistCache.Misses}}},
		{name: "roadskyline_distcache_stores_total", typ: "counter", help: "Wavefront snapshots stored in the distance cache.", samples: one(m.DistCache.Stores)},
		{name: "roadskyline_distcache_evictions_total", typ: "counter", help: "Distance-cache entries displaced by capacity.", samples: one(m.DistCache.Evictions)},
		{name: "roadskyline_distcache_entries", typ: "gauge", help: "Wavefront snapshots resident in the distance cache.", samples: one(m.DistCache.Entries)},
		{name: "roadskyline_wavefront_expansions_total", typ: "counter", help: "Single-flight wavefront outcomes by role: expansions led vs frontiers shared from a leader.",
			samples: []sample{{label("role", "lead"), m.Wavefront.Leads}, {label("role", "share"), m.Wavefront.Shares}}},
		{name: "roadskyline_wavefront_promotions_total", typ: "counter", help: "Subscribers promoted to leader after a cancelled lead.", samples: one(m.Wavefront.Promotions)},
		{name: "roadskyline_wavefront_bypasses_total", typ: "counter", help: "Joins that expanded independently (sharing off for the query, or no exact source match).", samples: one(m.Wavefront.Bypasses)},
		{name: "roadskyline_wavefront_waiting", typ: "gauge", help: "Subscribers blocked on a leader right now.", samples: one(m.Wavefront.Waiting)},
		{name: "roadskyline_flight_queries_total", typ: "counter", help: "Queries observed by the flight recorder, by outcome; empty when the recorder is disabled.",
			samples: flightOutcomes},
		{name: "roadskyline_query_duration_seconds", typ: "histogram", help: "Query response time (measured CPU plus modeled I/O) by algorithm and outcome; empty when the flight recorder is disabled.",
			series: durations},
	}
	if m.Load != nil {
		// One series per view width (window="1s"/"10s"/"60s"); values lists
		// the samples one view contributes, each under an optional further
		// label pair.
		perView := func(values func(LoadStats) []sample) []sample {
			var out []sample
			for _, v := range m.Load {
				window := fmt.Sprintf("window=\"%ds\"", v.WindowSeconds)
				for _, s := range values(v) {
					if s.labels != "" {
						s.labels = "," + s.labels
					}
					out = append(out, sample{window + s.labels, s.value})
				}
			}
			return out
		}
		fams = append(fams,
			family{name: "roadskyline_load_tps", typ: "gauge", help: "Completed submissions per second over the trailing window.",
				samples: perView(func(v LoadStats) []sample { return one(v.TPS) })},
			family{name: "roadskyline_load_queries", typ: "gauge", help: "Completed submissions in the trailing window by outcome.",
				samples: perView(func(v LoadStats) []sample {
					return []sample{
						{label("outcome", "served"), v.Served},
						{label("outcome", "error"), v.Errors},
						{label("outcome", "cancelled"), v.Cancelled},
						{label("outcome", "saturated"), v.Saturated},
						{label("outcome", "closed"), v.Closed},
					}
				})},
			family{name: "roadskyline_load_latency_seconds", typ: "gauge", help: "Latency quantile estimates (upper bucket edge) over the trailing window, completed submissions only.",
				samples: perView(func(v LoadStats) []sample {
					return []sample{
						{label("quantile", "0.5"), v.P50.Seconds()},
						{label("quantile", "0.9"), v.P90.Seconds()},
						{label("quantile", "0.99"), v.P99.Seconds()},
						{label("quantile", "0.999"), v.P999.Seconds()},
					}
				})},
			family{name: "roadskyline_load_distcache_hit_rate", typ: "gauge", help: "Distance-cache hit rate of the window's completed queries (0 when none looked up).",
				samples: perView(func(v LoadStats) []sample { return one(v.DistCacheHitRate) })},
			family{name: "roadskyline_load_wavefront_share_rate", typ: "gauge", help: "Fraction of the window's single-flight joins that shared a leader's wavefront.",
				samples: perView(func(v LoadStats) []sample { return one(v.WavefrontShareRate) })},
		)
	}
	if s := m.Runtime; s != nil {
		quantiles := func(p50, p99, max time.Duration) []sample {
			return []sample{
				{label("quantile", "0.5"), p50.Seconds()},
				{label("quantile", "0.99"), p99.Seconds()},
				{label("quantile", "1"), max.Seconds()},
			}
		}
		fams = append(fams,
			family{name: "roadskyline_runtime_heap_bytes", typ: "gauge", help: "Live heap bytes at the last runtime sample.", samples: one(s.HeapBytes)},
			family{name: "roadskyline_runtime_total_bytes", typ: "gauge", help: "Bytes mapped by the Go runtime at the last sample.", samples: one(s.TotalBytes)},
			family{name: "roadskyline_runtime_alloc_bytes_total", typ: "counter", help: "Cumulative heap bytes allocated; the rate is the allocation rate.", samples: one(s.AllocBytes)},
			family{name: "roadskyline_runtime_goroutines", typ: "gauge", help: "Live goroutines at the last runtime sample.", samples: one(s.Goroutines)},
			family{name: "roadskyline_runtime_gc_cycles_total", typ: "counter", help: "Completed GC cycles.", samples: one(s.GCCycles)},
			family{name: "roadskyline_runtime_gc_pause_seconds", typ: "gauge", help: "GC stop-the-world pause quantiles since process start (quantile 1 is the max bucket edge).",
				samples: quantiles(s.GCPauseP50, s.GCPauseP99, s.GCPauseMax)},
			family{name: "roadskyline_runtime_sched_latency_seconds", typ: "gauge", help: "Scheduler queueing latency quantiles since process start (quantile 1 is the max bucket edge).",
				samples: quantiles(s.SchedLatP50, s.SchedLatP99, s.SchedLatMax)},
		)
	}
	return fams
}

// writePoolMetrics renders one snapshot in the Prometheus text format.
// Every family goes through this one loop — HELP/TYPE once, then its
// samples, or per histogram series the cumulative buckets with their le
// bounds, the +Inf bucket and _sum/_count — so the exposition shape cannot
// drift between families.
func writePoolMetrics(w io.Writer, m PoolMetrics) {
	for _, f := range metricFamilies(m) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintf(w, "%s%s %v\n", f.name, braced(s.labels), s.value)
		}
		for _, s := range f.series {
			pre := s.labels
			if pre != "" {
				pre += ","
			}
			for i, b := range s.h.Bounds {
				if i < len(s.h.Buckets) {
					fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", f.name, pre, fmt.Sprintf("%g", b.Seconds()), s.h.Buckets[i])
				}
			}
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", f.name, pre, "+Inf", s.h.Count)
			fmt.Fprintf(w, "%s_sum%s %g\n", f.name, braced(s.labels), s.h.Sum.Seconds())
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(s.labels), s.h.Count)
		}
	}
}

// braced wraps rendered label pairs in braces; no labels, no braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// sortedKeys returns the outcome names of a per-outcome count map in
// exposition order.
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeJSON answers a debug endpoint with v as indented JSON.
func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// flightResponse is the JSON body of the /debug/queries endpoint.
type flightResponse struct {
	// Enabled reports whether the engine was built with a flight recorder.
	Enabled bool `json:"enabled"`
	// Seen counts the queries recorded over the recorder's lifetime;
	// Outcomes splits them by outcome. Retention is bounded, so
	// len(Records) is typically far below Seen.
	Seen     uint64            `json:"seen"`
	Outcomes map[string]uint64 `json:"outcomes,omitempty"`
	Records  []FlightRecord    `json:"records"`
}

// FlightHandler returns an http.Handler serving the flight recorder's
// retained query records as JSON (default) or human-readable text
// (?format=text). Query parameters filter the records:
//
//	alg=LBC        only queries of one algorithm (case-insensitive)
//	outcome=error  only one outcome (served, error, cancelled,
//	               abandoned, saturated, closed)
//	slowest=10     order by total time descending and keep the top N
//	               (the slowest-N reservoir guarantees the recorder's
//	               lifetime top-SlowN are retained)
//	limit=50       keep at most N records (after the other filters)
//
// Without slowest, records come newest first. Mount it under
// /debug/queries:
//
//	http.Handle("/debug/queries", pool.FlightHandler())
func (p *Pool) FlightHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		params := req.URL.Query()
		slowest, err := positiveIntParam(params.Get("slowest"))
		if err != nil {
			http.Error(rw, "slowest: "+err.Error(), http.StatusBadRequest)
			return
		}
		limit, err := positiveIntParam(params.Get("limit"))
		if err != nil {
			http.Error(rw, "limit: "+err.Error(), http.StatusBadRequest)
			return
		}

		var recs []FlightRecord
		if slowest > 0 {
			recs = p.flight.Slowest(0) // all retained, slowest first; cut after filtering
		} else {
			recs = p.FlightRecords()
		}
		if alg := params.Get("alg"); alg != "" {
			recs = filterRecords(recs, func(r FlightRecord) bool { return strings.EqualFold(r.Alg, alg) })
		}
		if outcome := params.Get("outcome"); outcome != "" {
			recs = filterRecords(recs, func(r FlightRecord) bool { return r.Outcome == outcome })
		}
		if slowest > 0 && len(recs) > slowest {
			recs = recs[:slowest]
		}
		if limit > 0 && len(recs) > limit {
			recs = recs[:limit]
		}
		if recs == nil {
			recs = []FlightRecord{} // render as [] rather than null
		}

		resp := flightResponse{
			Enabled:  p.flight != nil,
			Seen:     p.flight.Seen(),
			Outcomes: p.flight.OutcomeCounts(),
			Records:  recs,
		}
		if params.Get("format") == "text" {
			rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeFlightText(rw, resp)
			return
		}
		writeJSON(rw, resp)
	})
}

// positiveIntParam parses an optional positive integer query parameter;
// empty means unset (0).
func positiveIntParam(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("want a positive integer, got %q", s)
	}
	return n, nil
}

func filterRecords(recs []FlightRecord, keep func(FlightRecord) bool) []FlightRecord {
	out := recs[:0:0]
	for _, r := range recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// traceIndexEntry is one row of the /debug/trace index (the response
// when no id is given): a retained record that carries a trace.
type traceIndexEntry struct {
	TraceID string        `json:"trace_id"`
	Alg     string        `json:"alg"`
	Outcome string        `json:"outcome"`
	Total   time.Duration `json:"total_ns"`
	Spans   int           `json:"spans"`
}

// TraceHandler returns an http.Handler exporting one traced query's span
// breakdown as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing:
//
//	/debug/trace?id=t00000001
//
// The id is the Result.TraceID of a query run with Query.Trace (the
// record must still be retained by the flight recorder). Without an id
// the handler returns a JSON index of the retained traced records, the
// ids it would accept. Mount it under /debug/trace:
//
//	http.Handle("/debug/trace", pool.TraceHandler())
func (p *Pool) TraceHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("id")
		if id == "" {
			index := []traceIndexEntry{}
			for _, r := range p.FlightRecords() {
				if r.TraceID == "" {
					continue
				}
				index = append(index, traceIndexEntry{
					TraceID: r.TraceID,
					Alg:     r.Alg,
					Outcome: r.Outcome,
					Total:   r.Total,
					Spans:   len(r.Spans),
				})
			}
			writeJSON(rw, struct {
				Usage  string            `json:"usage"`
				Traces []traceIndexEntry `json:"traces"`
			}{"GET /debug/trace?id=<trace_id> for Chrome trace-event JSON", index})
			return
		}
		if _, ok := obs.ParseTraceID(id); !ok {
			http.Error(rw, fmt.Sprintf("id: want a trace ID like %q, got %q", "t00000001", id), http.StatusBadRequest)
			return
		}
		rec, ok := p.TraceRecord(id)
		if !ok {
			http.Error(rw, fmt.Sprintf("trace %s not retained (recorder disabled, id unknown, or record evicted)", id), http.StatusNotFound)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.Header().Set("Content-Disposition", fmt.Sprintf("inline; filename=%q", "trace-"+id+".json"))
		if err := obs.WriteTraceEvents(rw, rec); err != nil {
			http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
		}
	})
}

// InflightHandler returns an http.Handler serving the live in-flight
// view: every traced query currently queued or running across the pool's
// workers, with its current phase, running node settlements, live role
// and — for blocked subscribers — the flight key and leader trace ID it
// is waiting on. Mount it under /debug/inflight:
//
//	http.Handle("/debug/inflight", pool.InflightHandler())
func (p *Pool) InflightHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		qs := p.InflightQueries()
		if qs == nil {
			qs = []InflightQuery{}
		}
		writeJSON(rw, struct {
			Now     time.Time       `json:"now"`
			Queries []InflightQuery `json:"queries"`
		}{time.Now(), qs})
	})
}

// loadResponse is the JSON body of the /debug/load endpoint.
type loadResponse struct {
	// Enabled reports whether the pool was built with the rolling window.
	Enabled bool      `json:"enabled"`
	Now     time.Time `json:"now"`
	// Windows are the rolling views (1s, 10s, 60s); empty when disabled.
	Windows []LoadStats `json:"windows"`
	// Runtime is the latest Go runtime sample, absent when the sampler is
	// disabled; History holds the retained samples oldest-first when
	// ?history=N asks for them (N caps the count).
	Runtime *RuntimeSample  `json:"runtime,omitempty"`
	History []RuntimeSample `json:"history,omitempty"`
}

// LoadHandler returns an http.Handler serving the live load view as JSON:
// the rolling 1s/10s/60s windows (throughput, latency quantiles, outcome
// and cache-hit rates) plus the latest Go runtime sample. With
// ?history=N it also returns up to N retained runtime samples,
// oldest-first, for quick heap/GC trend plots. Mount it under
// /debug/load:
//
//	http.Handle("/debug/load", pool.LoadHandler())
func (p *Pool) LoadHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		history, err := positiveIntParam(req.URL.Query().Get("history"))
		if err != nil {
			http.Error(rw, "history: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp := loadResponse{
			Enabled: p.window != nil,
			Now:     time.Now(),
			Windows: p.window.Views(),
		}
		if resp.Windows == nil {
			resp.Windows = []LoadStats{}
		}
		if s, ok := p.sampler.Latest(); ok {
			resp.Runtime = &s
		}
		if history > 0 {
			if all := p.sampler.Samples(); len(all) > 0 {
				if len(all) > history {
					all = all[len(all)-history:]
				}
				resp.History = all
			}
		}
		writeJSON(rw, resp)
	})
}

// writeFlightText renders the records for humans: one header line per
// query followed by its per-phase breakdown.
func writeFlightText(w io.Writer, resp flightResponse) {
	if !resp.Enabled {
		fmt.Fprintln(w, "flight recorder disabled (EngineConfig.FlightRecorder.Size = 0)")
		return
	}
	fmt.Fprintf(w, "flight recorder: %d queries seen, %d retained\n", resp.Seen, len(resp.Records))
	for _, o := range sortedKeys(resp.Outcomes) {
		fmt.Fprintf(w, "  %s=%d", o, resp.Outcomes[o])
	}
	if len(resp.Outcomes) > 0 {
		fmt.Fprintln(w)
	}
	for _, r := range resp.Records {
		fmt.Fprintf(w, "\n#%d %s alg=%s |Q|=%d outcome=%s total=%s initial=%s\n",
			r.Seq, r.When.Format("15:04:05.000"), r.Alg, r.NumPoints, r.Outcome, r.Total, r.Initial)
		if r.Err != "" {
			fmt.Fprintf(w, "  err: %s\n", r.Err)
		}
		fmt.Fprintf(w, "  candidates=%d nodes=%d pages=%d gets=%d rtree=%d",
			r.Candidates, r.NodesExpanded, r.NetworkPages, r.NetworkGets, r.RTreeNodes)
		if r.DistCacheHits+r.DistCacheMisses > 0 {
			fmt.Fprintf(w, " distcache=%d/%d", r.DistCacheHits, r.DistCacheHits+r.DistCacheMisses)
		}
		fmt.Fprintln(w)
		for _, ph := range r.Phases {
			fmt.Fprintf(w, "  phase %-15s x%-4d %-12s pages=%-6d nodes=%d\n",
				ph.Phase, ph.Count, ph.Duration, ph.NetworkPages, ph.NodesExpanded)
		}
	}
}
