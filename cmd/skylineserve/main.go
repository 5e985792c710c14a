// Command skylineserve serves multi-source skyline queries over HTTP,
// with the engine pool's runtime metrics and Go's profiling endpoints
// alongside — the observability front end of the engine.
//
// The network is either read from a roadnet file (-net) or generated from
// a paper preset (-preset); objects are generated at the given density.
// Queries run on a Pool of engine clones, so concurrent requests are
// served in parallel and cancelled requests abort their expansions.
//
// Endpoints:
//
//	GET /query?q=x,y&q=x,y[&alg=CE|EDC|LBC][&attrs=1][&alternate=1][&source=i][&phases=1][&trace=0|1]
//	    Answer one skyline query; points snap to the nearest road.
//	    phases=1 adds the per-phase work breakdown to the stats;
//	    trace=0|1 overrides -trace for this request (a traced response
//	    carries its trace_id).
//	GET /metrics      Pool metrics, Prometheus text exposition format,
//	    including the per-algorithm/outcome query duration histograms
//	    and the roadskyline_build_info gauge.
//	GET /healthz      Liveness probe with worker/occupancy counts, the
//	    build version and the process uptime.
//	GET /debug/queries[?alg=&outcome=&slowest=&limit=&format=text]
//	    The query flight recorder's retained per-query records (JSON by
//	    default): sampled traffic plus the slowest and every failed query,
//	    with full per-phase breakdowns and trace spans.
//	GET /debug/trace?id=tXXXXXXXX
//	    One traced query's span breakdown as Chrome trace-event JSON
//	    (open in Perfetto or chrome://tracing); without id, an index of
//	    the retained traced records.
//	GET /debug/inflight
//	    Live view of the queries running right now: phase, nodes
//	    expanded, wavefront role, and the leader blocked on.
//	GET /debug/load[?history=N]
//	    Live load view: rolling 1s/10s/60s windows of TPS, latency
//	    quantiles, outcome and cache-hit rates, plus the latest Go
//	    runtime sample (and up to N retained samples with history=N).
//	GET /debug/pprof  Go profiling endpoints.
//
// Usage:
//
//	skylineserve -preset CA -omega 0.5 -addr :8080
//	skylineserve -preset CA -smoke        # self-test: query + scrape, then exit
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"roadskyline"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		netFile = flag.String("net", "", "roadnet file to load")
		preset  = flag.String("preset", "CA", "paper preset when -net is not given: CA, AU or NA")
		omega   = flag.Float64("omega", 0.5, "object density |D|/|E|")
		attrs   = flag.Int("attrs", 0, "number of random non-spatial attributes per object")
		seed    = flag.Int64("seed", 1, "random seed for generated objects")
		workers = flag.Int("workers", 0, "pool workers (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "admission queue depth beyond the workers (0 = 4x workers)")
		slow    = flag.Duration("slow-query", time.Second, "log queries slower than this with their phase breakdown at Warn (default 1s; 0 disables)")
		logLvl  = flag.String("log-level", "info", "log level: debug (per-request and per-span records), info, warn or error")
		flight  = flag.Int("flight", 512, "flight recorder retention: per-query records kept in each of the sampled and errored reservoirs (0 disables /debug/queries)")
		trace   = flag.Bool("trace", true, "give queries causal traces: trace IDs in responses, /debug/inflight and /debug/trace exports (per-request override: ?trace=0|1)")
		loadWin = flag.Bool("load-window", true, "maintain the rolling load window (1s/10s/60s TPS, latency quantiles, outcome rates) behind /debug/load and the roadskyline_load_* metrics")
		rtEvery = flag.Duration("runtime-sample", 5*time.Second, "Go runtime sampling interval for the roadskyline_runtime_* metrics (0 disables)")
		report  = flag.Duration("report-interval", 0, "log a one-line load summary (TPS, p99, in-flight, heap) at this interval; 0 disables, requires -load-window")
		shutTO  = flag.Duration("shutdown-timeout", 10*time.Second, "how long graceful shutdown waits for in-flight requests before forcing the listener closed")
		smoke   = flag.Bool("smoke", false, "self-test: start, run one query and scrape /metrics, /debug/queries and /debug/trace over HTTP, then exit")
		smokeTr = flag.String("smoke-trace-out", "", "with -smoke: also write the smoke query's exported Chrome trace-event JSON to this file")
	)
	flag.Parse()

	level, err := parseLogLevel(*logLvl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	network, err := loadNetwork(*netFile, *preset)
	if err != nil {
		log.Error("loading network", "err", err)
		os.Exit(1)
	}
	objects := network.GenerateObjects(*omega, *attrs, *seed)
	eng, err := roadskyline.NewEngine(network, objects, roadskyline.EngineConfig{
		WarmCache: true,
		FlightRecorder: roadskyline.FlightRecorderConfig{
			Size:        *flight,
			SlowN:       32,
			SampleEvery: 1,
		},
	})
	if err != nil {
		log.Error("building engine", "err", err)
		os.Exit(1)
	}
	pool, err := roadskyline.NewPool(eng, roadskyline.PoolConfig{
		Workers: *workers, QueueDepth: *queue,
		Window: *loadWin, RuntimeSample: *rtEvery,
	})
	if err != nil {
		log.Error("building pool", "err", err)
		os.Exit(1)
	}
	defer pool.Close()

	s := &server{net: network, pool: pool, log: log, trace: *trace, start: time.Now()}
	// One SlogTracer serves every request: it is a sink of finished
	// records and keeps no per-query state.
	if *slow > 0 || log.Enabled(context.Background(), slog.LevelDebug) {
		s.tracer = roadskyline.NewSlogTracer(log, *slow)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.Handle("/metrics", pool.MetricsHandler())
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/debug/queries", pool.FlightHandler())
	mux.Handle("/debug/trace", pool.TraceHandler())
	mux.Handle("/debug/inflight", pool.InflightHandler())
	mux.Handle("/debug/load", pool.LoadHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listening", "addr", *addr, "err", err)
		os.Exit(1)
	}
	srv := newHTTPServer(mux)
	log.Info("serving", "addr", ln.Addr().String(),
		"nodes", network.NumNodes(), "edges", network.NumEdges(),
		"objects", len(objects), "workers", pool.Workers())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	if *report > 0 {
		if !*loadWin {
			log.Warn("-report-interval needs -load-window; periodic reports disabled")
		} else {
			stopReport := make(chan struct{})
			defer close(stopReport)
			go reportLoop(pool, log, *report, stopReport)
		}
	}

	if *smoke {
		if err := runSmoke(log, ln.Addr().String(), *smokeTr); err != nil {
			log.Error("smoke test failed", "err", err)
			os.Exit(1)
		}
		shutdown(srv, *shutTO, log)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Info("shutting down", "timeout", *shutTO)
		if err := shutdown(srv, *shutTO, log); err != nil {
			os.Exit(1)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("serving", "err", err)
			os.Exit(1)
		}
	}
}

// A client gets readHeaderTimeout to send a request's headers, so one that
// sends them slowly cannot hold a connection forever (an idle keep-alive
// connection waits without a limit, as before). The header block, request
// line included, is capped at maxHeaderBytes: a /query at maxQueryPoints
// points fits in under 4 kB, and a larger request answers 431.
const (
	readHeaderTimeout = 10 * time.Second
	maxHeaderBytes    = 16 << 10
)

// newHTTPServer returns the server that serves h under the limits above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, MaxHeaderBytes: maxHeaderBytes}
}

// reportLoop logs a one-line load summary at each tick so operators can
// tail the log without a Prometheus stack: current TPS and tail latency
// from the rolling 10s window, live occupancy, and heap/goroutines from
// the runtime sampler when enabled.
func reportLoop(pool *roadskyline.Pool, log *slog.Logger, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		m := pool.PoolMetrics()
		if len(m.Load) < 2 {
			continue
		}
		v := m.Load[1] // the 10s view: smoothed but current
		args := []any{
			"tps", v.TPS,
			"p99", v.P99,
			"served", v.Served,
			"errors", v.Errors,
			"saturated", v.Saturated,
			"in_flight", m.InFlight,
			"waiting", m.Waiting,
		}
		if m.Runtime != nil {
			args = append(args, "heap_mb", float64(m.Runtime.HeapBytes)/(1<<20),
				"goroutines", m.Runtime.Goroutines)
		}
		log.Info("load", args...)
	}
}

// shutdown drains the server gracefully: in-flight requests get up to
// timeout to complete (on a fresh context, deliberately detached from
// the already-cancelled signal context) before the listener is forced
// closed.
func shutdown(srv *http.Server, timeout time.Duration, log *slog.Logger) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Error("shutdown", "err", err)
		return err
	}
	return nil
}

type server struct {
	net   *roadskyline.Network
	pool  *roadskyline.Pool
	log   *slog.Logger
	trace bool
	start time.Time
	// tracer is the slow-query log attached to every query; nil when
	// neither -slow-query nor a debug log level asks for it.
	tracer roadskyline.Tracer
}

// queryResponse is the /query JSON body. Durations inside Stats marshal
// as nanoseconds (Go's default for time.Duration).
type queryResponse struct {
	Algorithm string            `json:"algorithm"`
	TraceID   string            `json:"trace_id,omitempty"`
	Points    []responsePoint   `json:"points"`
	Stats     roadskyline.Stats `json:"stats"`
}

type responsePoint struct {
	ID        int32     `json:"id"`
	X         float64   `json:"x"`
	Y         float64   `json:"y"`
	Distances []float64 `json:"distances"`
	Attrs     []float64 `json:"attrs,omitempty"`
}

// maxQueryPoints bounds |Q| per request: every q point is snapped (an
// R-tree search over the network's edges) before the pool's admission
// control sees the query, and each adds a wavefront to the query's work;
// the paper's workloads stop at |Q| = 8.
const maxQueryPoints = 64

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	vals := r.URL.Query()

	if n := len(vals["q"]); n > maxQueryPoints {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("%d query points, at most %d allowed", n, maxQueryPoints))
		return
	}
	var locs []roadskyline.Location
	for _, spec := range vals["q"] {
		pt, err := parsePoint(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad query point %q: %v", spec, err))
			return
		}
		loc, err := s.net.NearestLocation(pt)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("snapping %q: %v", spec, err))
			return
		}
		locs = append(locs, loc)
	}
	if len(locs) == 0 {
		httpError(w, http.StatusBadRequest, "need at least one q=x,y query point")
		return
	}

	alg, err := parseAlg(vals.Get("alg"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	source := 0
	if v := vals.Get("source"); v != "" {
		if source, err = strconv.Atoi(v); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad source %q", v))
			return
		}
	}
	traced := s.trace
	if v := vals.Get("trace"); v != "" {
		traced = boolParam(v)
	}
	q := roadskyline.Query{
		Points:        locs,
		Algorithm:     alg,
		UseAttrs:      boolParam(vals.Get("attrs")),
		Alternate:     boolParam(vals.Get("alternate")),
		Source:        source,
		CollectPhases: boolParam(vals.Get("phases")),
		Trace:         traced,
		Tracer:        s.tracer,
	}

	res, err := s.pool.Skyline(r.Context(), q)
	switch {
	case err == nil:
	case errors.Is(err, roadskyline.ErrPoolSaturated):
		httpError(w, http.StatusServiceUnavailable, "pool saturated, retry later")
		return
	case errors.Is(err, roadskyline.ErrPoolClosed):
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return // client went away; nothing to answer
	default:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	out := queryResponse{Algorithm: alg.String(), TraceID: res.TraceID, Points: make([]responsePoint, len(res.Points)), Stats: res.Stats}
	for i, p := range res.Points {
		pt := s.net.PointOf(p.Object.Loc)
		out.Points[i] = responsePoint{
			ID: p.Object.ID, X: pt.X, Y: pt.Y,
			Distances: p.Distances, Attrs: p.Object.Attrs,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		s.log.Debug("writing response", "err", err)
	}
	s.log.Debug("query served", "alg", alg.String(), "points", len(locs),
		"skyline", len(res.Points), "elapsed", time.Since(start))
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m := s.pool.PoolMetrics()
	version, goVersion := roadskyline.BuildInfo()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"workers":   m.Workers,
		"inFlight":  m.InFlight,
		"served":    m.Served,
		"version":   version,
		"goVersion": goVersion,
		"uptime":    time.Since(s.start).String(),
	})
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func parsePoint(spec string) (roadskyline.Point, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return roadskyline.Point{}, fmt.Errorf("want x,y")
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return roadskyline.Point{}, err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return roadskyline.Point{}, err
	}
	return roadskyline.Point{X: x, Y: y}, nil
}

func parseAlg(name string) (roadskyline.Algorithm, error) {
	switch strings.ToUpper(name) {
	case "", "LBC":
		return roadskyline.LBCAlg, nil
	case "CE":
		return roadskyline.CEAlg, nil
	case "EDC":
		return roadskyline.EDCAlg, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want CE, EDC or LBC)", name)
}

func boolParam(v string) bool {
	b, err := strconv.ParseBool(v)
	return err == nil && b
}

func parseLogLevel(name string) (slog.Level, error) {
	switch strings.ToLower(name) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", name)
}

// runSmoke exercises the serving path end to end through real HTTP: a
// liveness probe, one traced skyline query, a metrics scrape and the
// trace export. When traceOut is non-empty the exported Chrome
// trace-event JSON is also written there (CI uploads it as an artifact).
func runSmoke(log *slog.Logger, addr, traceOut string) error {
	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}

	if _, err := fetch(client, base+"/healthz"); err != nil {
		return err
	}
	body, err := fetch(client, base+"/query?q=0.2,0.3&q=0.7,0.7&alg=LBC&phases=1&trace=1")
	if err != nil {
		return err
	}
	var res queryResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decoding /query response: %w", err)
	}
	if len(res.Points) == 0 {
		return fmt.Errorf("smoke query returned an empty skyline")
	}
	if res.TraceID == "" {
		return fmt.Errorf("smoke query response carries no trace_id")
	}
	log.Info("smoke query ok", "skyline", len(res.Points), "trace", res.TraceID,
		"phases", len(res.Stats.Phases), "total", res.Stats.Total)

	metrics, err := fetch(client, base+"/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"roadskyline_build_info{version=",
		"roadskyline_pool_workers",
		"roadskyline_pool_queries_total{outcome=\"served\"} 1",
		"roadskyline_query_duration_seconds_bucket{alg=\"LBC\",outcome=\"served\",le=\"+Inf\"} 1",
		"roadskyline_flight_queries_total{outcome=\"served\"} 1",
		"roadskyline_load_tps{window=\"10s\"}",
		"roadskyline_runtime_heap_bytes ",
	} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("/metrics missing %q", want)
		}
	}
	log.Info("smoke metrics ok", "bytes", len(metrics))

	trace, err := fetch(client, base+"/debug/trace?id="+res.TraceID)
	if err != nil {
		return err
	}
	var events struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &events); err != nil {
		return fmt.Errorf("decoding /debug/trace response: %w", err)
	}
	if len(events.TraceEvents) == 0 {
		return fmt.Errorf("/debug/trace exported no events: %s", trace)
	}
	if traceOut != "" {
		if err := os.WriteFile(traceOut, trace, 0o644); err != nil {
			return fmt.Errorf("writing -smoke-trace-out: %w", err)
		}
	}
	log.Info("smoke trace export ok", "trace", res.TraceID, "events", len(events.TraceEvents))

	inflight, err := fetch(client, base+"/debug/inflight")
	if err != nil {
		return err
	}
	if !strings.Contains(string(inflight), "\"queries\"") {
		return fmt.Errorf("/debug/inflight malformed: %s", inflight)
	}

	load, err := fetch(client, base+"/debug/load")
	if err != nil {
		return err
	}
	var loadResp struct {
		Enabled bool             `json:"enabled"`
		Windows []map[string]any `json:"windows"`
		Runtime map[string]any   `json:"runtime"`
	}
	if err := json.Unmarshal(load, &loadResp); err != nil {
		return fmt.Errorf("decoding /debug/load response: %w", err)
	}
	if !loadResp.Enabled || len(loadResp.Windows) != 3 || loadResp.Runtime == nil {
		return fmt.Errorf("/debug/load incomplete: %s", load)
	}
	log.Info("smoke load view ok", "windows", len(loadResp.Windows))

	body, err = fetch(client, base+"/debug/queries?slowest=10")
	if err != nil {
		return err
	}
	var flights struct {
		Enabled bool                       `json:"enabled"`
		Seen    uint64                     `json:"seen"`
		Records []roadskyline.FlightRecord `json:"records"`
	}
	if err := json.Unmarshal(body, &flights); err != nil {
		return fmt.Errorf("decoding /debug/queries response: %w", err)
	}
	if !flights.Enabled || flights.Seen == 0 || len(flights.Records) == 0 {
		return fmt.Errorf("/debug/queries did not retain the smoke query: %s", body)
	}
	if len(flights.Records[0].Phases) == 0 {
		return fmt.Errorf("/debug/queries record lacks the phase breakdown: %s", body)
	}
	log.Info("smoke flight recorder ok", "seen", flights.Seen, "retained", len(flights.Records))
	return nil
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

func loadNetwork(path, preset string) (*roadskyline.Network, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return roadskyline.ReadNetwork(f)
	}
	switch preset {
	case "CA":
		return roadskyline.Generate(roadskyline.CA)
	case "AU":
		return roadskyline.Generate(roadskyline.AU)
	case "NA":
		return roadskyline.Generate(roadskyline.NA)
	}
	return nil, fmt.Errorf("unknown preset %q (want CA, AU or NA)", preset)
}
