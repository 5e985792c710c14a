package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the program are a later change). Spans of one query
// share its catalog index; parent is the index of the enclosing span, -1 at
// the top. A span with calls > 0 is an aggregate: the summed time of that
// many calls made under its parent (one span per Neighbors call would cost
// more than the call).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Query  int    `json:"query"`
	Calls  int64  `json:"calls,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing and costs a nil check: the untraced runs use nil.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent int32, query int) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Query: query})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// aggregate records the summed busy time of calls made under parent.
func (r *recorder) aggregate(name string, parent int32, query int, busy time.Duration, calls int64) {
	if r == nil || calls == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[parent].Start
	r.spans = append(r.spans, span{Name: name, Start: start, End: start + int64(busy), Parent: parent, Query: query, Calls: calls})
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}

// write stores the spans as one JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
