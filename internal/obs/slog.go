package obs

import (
	"context"
	"log/slog"
	"time"
)

// SlogTracer is a ready-made Tracer that writes finished queries to a
// structured logger: one Info "skyline query done" record per query; one
// Debug record per span of a traced query; and, when the query's Total
// reaches the slow threshold, a Warn "slow skyline query" record with the
// per-phase breakdown — the slow-query log. Total is the modeled response
// time the flight recorder's slowest-N reservoir ranks by, so a query is
// slow here exactly when it is slow in /debug/queries?slowest.
//
// The Info and Warn records carry the query's outcome, its trace_id when
// it ran traced (resolvable through Engine.TraceRecord or
// /debug/trace?id=) and err when it failed. SlogTracer keeps no per-query
// state: one instance serves every query of a process concurrently.
type SlogTracer struct {
	log  *slog.Logger
	slow time.Duration
}

// NewSlogTracer builds a tracer over log. When slow is positive, queries
// whose total time reaches it are reported at Warn with their phase
// breakdown; zero disables the slow-query log. A nil logger means
// slog.Default().
func NewSlogTracer(log *slog.Logger, slow time.Duration) *SlogTracer {
	if log == nil {
		log = slog.Default()
	}
	return &SlogTracer{log: log, slow: slow}
}

// QueryDone logs rec.
func (t *SlogTracer) QueryDone(rec FlightRecord) {
	attrs := []any{"alg", rec.Alg, "points", rec.NumPoints, "outcome", rec.Outcome, "total", rec.Total}
	if rec.TraceID != "" {
		attrs = append(attrs, "trace_id", rec.TraceID)
	}
	if rec.Err != "" {
		attrs = append(attrs, "err", rec.Err)
	}
	t.log.Info("skyline query done", attrs...)
	if len(rec.Spans) > 0 && t.log.Enabled(context.Background(), slog.LevelDebug) {
		for _, s := range rec.Spans {
			t.log.Debug("skyline query span", "trace_id", rec.TraceID, "span", s.Name,
				"start", s.Start, "dur", s.Dur, "pages", s.Pages, "nodes", s.Nodes, "ref", s.Ref)
		}
	}
	if t.slow <= 0 || rec.Total < t.slow {
		return
	}
	attrs = append(attrs, "threshold", t.slow)
	for _, ps := range rec.Phases {
		attrs = append(attrs, string(ps.Phase), slog.GroupValue(
			slog.Int("count", ps.Count),
			slog.Duration("dur", ps.Duration),
			slog.Int64("pages", ps.NetworkPages),
			slog.Int("nodes", ps.NodesExpanded),
		))
	}
	t.log.Warn("slow skyline query", attrs...)
}
