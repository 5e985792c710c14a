package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roadskyline"
)

// TestQueryRejectsHostileInput: /query answers 400, before touching the
// pool, to non-finite coordinates and to finite ones too far out for any
// edge to be at a finite distance (both used to snap to edge 0 and answer
// 200) and to more than maxQueryPoints points; once the pool is closed it
// answers 503.
func TestQueryRejectsHostileInput(t *testing.T) {
	n, err := roadskyline.Generate(roadskyline.NetworkSpec{Name: "serve", Nodes: 300, Edges: 390,
		Jitter: 0.3, MaxStretch: 0.2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := roadskyline.NewEngine(n, n.GenerateObjects(0.4, 0, 17), roadskyline.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := roadskyline.NewPool(eng, roadskyline.PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	s := &server{net: n, pool: pool, log: slog.New(slog.NewTextHandler(io.Discard, nil))}

	get := func(query string) int {
		rw := httptest.NewRecorder()
		s.handleQuery(rw, httptest.NewRequest("GET", "/query?"+query, nil))
		return rw.Code
	}
	if code := get("q=0.4,0.4&q=0.6,0.5"); code != http.StatusOK {
		t.Fatalf("plain query: status %d", code)
	}
	for _, bad := range []string{"q=NaN,NaN", "q=0.5,nan", "q=Inf,0.5", "q=0.5,-Inf&q=0.4,0.4",
		"q=1.7e308,1.7e308", "q=-1.7e308,1e308", "q=0.4,0.4&q=1.7e308,1.7e308"} {
		if code := get(bad); code != http.StatusBadRequest {
			t.Errorf("GET /query?%s: status %d, want 400", bad, code)
		}
	}
	atCap := strings.Repeat("q=0.5,0.5&", maxQueryPoints)
	if code := get(atCap); code != http.StatusOK {
		t.Errorf("%d query points: status %d, want 200", maxQueryPoints, code)
	}
	if code := get(atCap + "q=0.5,0.5"); code != http.StatusBadRequest {
		t.Errorf("%d query points: status %d, want 400", maxQueryPoints+1, code)
	}
	if m := pool.PoolMetrics(); m.Submitted != 2 {
		t.Errorf("pool saw %d submissions, want only the 2 valid ones", m.Submitted)
	}
	// A pool that no longer admits queries answers 503, not 400: the
	// client should retry elsewhere, not fix its request.
	pool.Close()
	if code := get("q=0.4,0.4"); code != http.StatusServiceUnavailable {
		t.Errorf("closed pool: status %d, want 503", code)
	}
}

// FuzzQueryHandler feeds arbitrary query strings to /query on the test
// network: every one must answer 200, 400 or 503 with a JSON body (a
// queryResponse on 200, an error object otherwise) and none may panic.
//
//	go test -run '^$' -fuzz FuzzQueryHandler -fuzztime 10s ./cmd/skylineserve
func FuzzQueryHandler(f *testing.F) {
	n, err := roadskyline.Generate(roadskyline.NetworkSpec{Name: "serve", Nodes: 300, Edges: 390,
		Jitter: 0.3, MaxStretch: 0.2, Seed: 31})
	if err != nil {
		f.Fatal(err)
	}
	eng, err := roadskyline.NewEngine(n, n.GenerateObjects(0.4, 2, 17), roadskyline.EngineConfig{})
	if err != nil {
		f.Fatal(err)
	}
	pool, err := roadskyline.NewPool(eng, roadskyline.PoolConfig{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer pool.Close()
	s := &server{net: n, pool: pool, log: slog.New(slog.NewTextHandler(io.Discard, nil))}

	for _, seed := range []string{
		"q=0.4,0.4&q=0.6,0.5",
		"q=0.4,0.4&q=0.6,0.5&alg=ce&attrs=1&phases=true",
		"q=0.1,0.9&q=0.1,0.9&alg=EDC&source=1&alternate=1&trace=0",
		"q=0.5,0.5&source=-3",
		"q=0.5,0.5&alg=dijkstra",
		"q=NaN,0.5", "q=1.7e308,1.7e308", "q=-1.7e308,1e308", "q=1e-320,-0",
		"q=1,2,3", "q=%zz", "q=", "", "alg=LBC",
		strings.Repeat("q=0.5,0.5&", maxQueryPoints+1),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest("GET", "/query", nil)
		req.URL.RawQuery = query
		rw := httptest.NewRecorder()
		s.handleQuery(rw, req)
		body := rw.Body.Bytes()
		switch rw.Code {
		case http.StatusOK:
			var out queryResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("GET /query?%s: 200 with body %q: %v", query, body, err)
			}
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			var out struct{ Error string }
			if err := json.Unmarshal(body, &out); err != nil || out.Error == "" {
				t.Fatalf("GET /query?%s: %d with body %q, want a JSON error", query, rw.Code, body)
			}
		default:
			t.Fatalf("GET /query?%s: status %d, want 200, 400 or 503", query, rw.Code)
		}
		if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET /query?%s: Content-Type %q", query, ct)
		}
	})
}

// TestShutdownDrainsInflight: a request already executing when shutdown
// begins runs to completion and its response reaches the client; the
// listener refuses new connections meanwhile.
func TestShutdownDrainsInflight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var completed atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		completed.Store(true)
		io.WriteString(w, "drained")
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	type reply struct {
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- reply{body: string(b), err: err}
	}()

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}

	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	shutDone := make(chan error, 1)
	go func() { shutDone <- shutdown(srv, 10*time.Second, log) }()

	// Shutdown closes the listener first; once new connections are refused
	// the in-flight request must still be live.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting long after shutdown started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-shutDone:
		t.Fatalf("shutdown returned %v with a request still in flight", err)
	default:
	}

	close(release)
	r := <-got
	if r.err != nil || r.body != "drained" {
		t.Fatalf("in-flight request got (%q, %v), want the full response", r.body, r.err)
	}
	if !completed.Load() {
		t.Fatal("handler did not run to completion")
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestShutdownTimeoutForcesClose: a handler that outlives the timeout is
// abandoned — shutdown returns context.DeadlineExceeded instead of
// hanging, which is what the -shutdown-timeout flag bounds.
func TestShutdownTimeoutForcesClose(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	go http.Get("http://" + ln.Addr().String() + "/stuck")
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}

	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	start := time.Now()
	err = shutdown(srv, 50*time.Millisecond, log)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v, want roughly the 50ms timeout", elapsed)
	}
}
