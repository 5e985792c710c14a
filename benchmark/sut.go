package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"roadskyline"
)

// errRejected marks a 503 / ErrPoolSaturated answer.
var errRejected = errors.New("rejected: pool saturated")

// target answers catalog entries; do is safe for concurrent callers.
type target interface {
	do(q *query) (*answer, error)
	layer() string // the span name of a call into this target
}

// engineTarget is library use: one caller on one Engine. likeServe makes
// each query carry what skylineserve attaches at its production defaults —
// a causal trace and a slow-query tracer — so the layers under an HTTP
// workload can be timed without the HTTP front.
type engineTarget struct {
	eng       *roadskyline.Engine
	likeServe bool
}

func (q *query) request(likeServe bool) roadskyline.Query {
	rq := roadskyline.Query{Points: q.pts, Algorithm: q.alg, UseAttrs: q.attrs}
	if likeServe {
		rq.Trace = true
		rq.Tracer = roadskyline.NewSlogTracer(discardLog, time.Second)
	}
	return rq
}

func (engineTarget) layer() string { return "engine.skyline" }

func (t engineTarget) do(q *query) (*answer, error) {
	res, err := t.eng.Skyline(q.request(t.likeServe))
	if err != nil {
		return nil, err
	}
	return answerOf(res), nil
}

// poolTarget is an in-process Pool.
type poolTarget struct {
	pool      *roadskyline.Pool
	likeServe bool
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func (poolTarget) layer() string { return "pool.skyline" }

func (t poolTarget) do(q *query) (*answer, error) {
	res, err := t.pool.Skyline(context.Background(), q.request(t.likeServe))
	if errors.Is(err, roadskyline.ErrPoolSaturated) {
		return nil, errRejected
	}
	if err != nil {
		return nil, err
	}
	return answerOf(res), nil
}

// httpTarget is a skylineserve child behind keep-alive connections.
type httpTarget struct {
	client *http.Client
	base   string
}

func newHTTPTarget(base string, conns int) httpTarget {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return httpTarget{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

type queryResponse struct {
	Points []struct {
		ID        int32     `json:"id"`
		Distances []float64 `json:"distances"`
	} `json:"points"`
	Stats roadskyline.Stats `json:"stats"`
}

func (httpTarget) layer() string { return "serve.request" }

func (t httpTarget) do(q *query) (*answer, error) {
	resp, err := t.client.Get(t.base + q.path)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		return nil, errRejected
	default:
		return nil, fmt.Errorf("GET %s: %s: %s", q.path, resp.Status, body)
	}
	return &answer{bytes: len(body), raw: body}, nil
}

// decode parses an HTTP answer's body. It runs after the caller has stopped
// the request's clock: parsing is the client's cost, not the server's.
func (a *answer) decode() error {
	if a.raw == nil {
		return nil
	}
	var r queryResponse
	if err := json.Unmarshal(a.raw, &r); err != nil {
		return fmt.Errorf("decoding /query response: %w", err)
	}
	a.raw = nil
	a.stats = r.Stats
	a.ids, a.dists = make([]int32, len(r.Points)), make([][]float64, len(r.Points))
	for i, p := range r.Points {
		a.ids[i], a.dists[i] = p.ID, p.Distances
	}
	return nil
}

// system is a workload's system under test, ready to answer.
type system struct {
	target target
	cpu    func() (time.Duration, error) // CPU consumed so far by the system under test
	pid    int                           // process holding it
	eng    *roadskyline.Engine           // source engine of in-process systems
	pool   *roadskyline.Pool
	srv    *server
	close  func() error
}

// setup brings the workload's system up and returns it with the wall time
// that took — from nothing to able-to-answer. Generating the network and
// the objects is the harness's work and happens before.
func (b *bench) setup(w *workload, ds *dataset) (*system, time.Duration, error) {
	if w.serve {
		args := append([]string{"-net", ds.netPath, "-omega", fmt.Sprint(omega), "-seed", fmt.Sprint(datasetSeed), "-workers", "2"}, w.serveArgs...)
		srv, took, err := startServer(b.serveBin, args...)
		if err != nil {
			return nil, 0, err
		}
		pid := srv.pid()
		return &system{
			target: newHTTPTarget(srv.base, w.callers),
			cpu:    func() (time.Duration, error) { return procCPU(pid) },
			pid:    pid, srv: srv, close: srv.stop,
		}, took, nil
	}
	start := time.Now()
	cfg := w.engine
	var eng *roadskyline.Engine
	var err error
	if w.mmapDir {
		// A network directory is built, closed and reopened read-only
		// through mmap: the path a deployment larger than RAM takes.
		b.dirSeq++
		dir := filepath.Join(b.tmp, fmt.Sprintf("netdir-%d", b.dirSeq))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		build := cfg
		build.DiskDir, build.Backend = dir, roadskyline.BackendMmap
		built, err := roadskyline.NewEngine(ds.net, ds.objs, build)
		if err != nil {
			return nil, 0, err
		}
		if err := built.Close(); err != nil {
			return nil, 0, err
		}
		cfg.Backend = roadskyline.BackendMmap
		if eng, err = roadskyline.OpenEngine(dir, cfg); err != nil {
			return nil, 0, err
		}
		if eng.StorageBackend() != roadskyline.BackendMmap {
			eng.Close()
			return nil, 0, fmt.Errorf("network directory opened through %v, not mmap", eng.StorageBackend())
		}
	} else if eng, err = roadskyline.NewEngine(ds.net, ds.objs, cfg); err != nil {
		return nil, 0, err
	}
	sys, err := inProcess(eng, w.pool, false)
	return sys, time.Since(start), err
}

// inProcess wraps an engine, and a pool over it when cfg asks for workers,
// as a system whose CPU is the harness process's own.
func inProcess(eng *roadskyline.Engine, cfg roadskyline.PoolConfig, likeServe bool) (*system, error) {
	sys := &system{cpu: selfCPU, pid: os.Getpid(), eng: eng, close: eng.Close,
		target: engineTarget{eng: eng, likeServe: likeServe}}
	if cfg.Workers == 0 {
		return sys, nil
	}
	pool, err := roadskyline.NewPool(eng, cfg)
	if err != nil {
		eng.Close()
		return nil, err
	}
	sys.pool, sys.target = pool, poolTarget{pool: pool, likeServe: likeServe}
	sys.close = func() error { pool.Close(); return eng.Close() }
	return sys, nil
}

// setupMedian sets the system up reps times, keeps the last one, and
// reports the median set-up time: one set-up is a single sample of process
// start, page-cache state and allocator warm-up.
func (b *bench) setupMedian(w *workload, ds *dataset, reps int) (*system, float64, error) {
	var times []float64
	for i := 1; ; i++ {
		sys, took, err := b.setup(w, ds)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d of %s: %w", i, w.name, err)
		}
		b.track(sys)
		times = append(times, took.Seconds())
		if i == reps {
			return sys, median(times), nil
		}
		if err := b.closeSystem(sys); err != nil {
			return nil, 0, fmt.Errorf("closing set-up %d of %s: %w", i, w.name, err)
		}
	}
}
