package distcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"roadskyline/internal/graph"
)

// Flight is the in-flight companion of the at-rest Cache: a single-flight
// table coalescing concurrent searchers rooted at the same source. The
// first searcher to arrive at a key becomes the *leader* and expands
// normally; searchers that arrive while the leader is in flight become
// *subscribers* and block until the leader publishes its final wavefront
// snapshot, which they restore exactly as they would a cache entry. K
// concurrent identical queries then perform ~one wavefront's expansions
// instead of K.
//
// Keys are the Cache's keys — (kind, heuristic flavor, edge, quantized
// offset) — and, like the cache, only an exact source match ever shares: a
// quantized-key collision between distinct sources is a bypass, not a
// wait. The soundness argument is the cache's too (see docs/CACHING.md):
// restoring a consistent-heuristic wavefront and expanding onward yields
// exact distances, so where the snapshot comes from — a prior query or a
// concurrent one — is immaterial.
//
// Deadlock freedom: a searcher may only wait when its query holds no
// leadership ticket (callers pass mayWait=false otherwise), so every
// wait-for edge runs from a query owning no keys to a leader that never
// blocks; no cycle can form. A leader that finishes without publishing —
// query error or cancellation — promotes its first waiter to leader (the
// baton pass), so a key's subscribers never stall on a dead leader.
//
// All methods are safe for concurrent use and no-ops on a nil receiver,
// mirroring the Cache.
type Flight struct {
	quantum float64

	mu  sync.Mutex
	tab map[key]*flightEntry

	// lineage is a bounded ring of resolved-flight events (who led, who
	// shared, how long each waiter blocked); lpos is the next overwrite
	// position. Guarded by mu like the table.
	lineage []LineageEvent
	lpos    int

	leads      atomic.Int64
	shares     atomic.Int64
	promotions atomic.Int64
	bypasses   atomic.Int64
	waiting    atomic.Int64
}

// flightEntry is one in-flight expansion: the leader's exact source and
// trace ID, and the subscribers blocked on its result, in arrival order.
type flightEntry struct {
	src         graph.Location
	leaderTrace uint64
	waiters     []*Waiter
}

// String renders the key for lineage events and trace spans:
// searcher kind, heuristic flavor, edge and quantized-offset bucket.
func (k key) String() string {
	kind := "dijkstra"
	if k.kind == KindAStar {
		kind = "astar"
	}
	return fmt.Sprintf("%s/f%d/e%d+%d", kind, k.flavor, k.edge, k.bucket)
}

// LineageSize bounds the lineage ring: the most recent resolved flights
// that had subscribers are retained.
const LineageSize = 256

// LineageSub is one subscriber of a resolved flight: its trace ID (zero
// when the query ran untraced) and how long it blocked before the
// resolution.
type LineageSub struct {
	Trace  uint64        `json:"trace"`
	Waited time.Duration `json:"waited_ns"`
}

// LineageEvent records one resolved wavefront flight that had
// subscribers: a "publish" delivered the leader's snapshot to every
// subscriber listed; a "promote" handed leadership to the listed waiter
// after its leader aborted. Solo leads (no subscribers) are counted but
// not logged — the lineage answers "who shared whose expansion", not
// "what ran".
type LineageEvent struct {
	When        time.Time    `json:"when"`
	Kind        string       `json:"kind"` // "publish" or "promote"
	Key         string       `json:"key"`
	Leader      uint64       `json:"leader"` // leader's trace ID; zero when untraced
	Subscribers []LineageSub `json:"subscribers,omitempty"`
}

// appendLineageLocked files one resolved-flight event into the bounded
// ring. Caller holds f.mu.
func (f *Flight) appendLineageLocked(ev LineageEvent) {
	ev.When = time.Now()
	if len(f.lineage) < LineageSize {
		f.lineage = append(f.lineage, ev)
		return
	}
	f.lineage[f.lpos] = ev
	f.lpos = (f.lpos + 1) % LineageSize
}

// Lineage returns the retained resolved-flight events, newest first.
// Nil on a nil Flight.
func (f *Flight) Lineage() []LineageEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]LineageEvent, 0, len(f.lineage))
	// Ring order: lpos is the oldest once full; walk backward from the
	// newest.
	for i := 0; i < len(f.lineage); i++ {
		j := (f.lpos - 1 - i + 2*len(f.lineage)) % len(f.lineage)
		out = append(out, f.lineage[j])
	}
	return out
}

// FlightStats is a point-in-time snapshot of a Flight's counters. Leads
// counts expansions that ran (first arrivals plus promotions), Shares
// snapshots delivered to subscribers, Promotions waiters promoted to
// leader after their leader aborted, Bypasses arrivals that expanded
// independently (leadership already held by their own query, or a
// quantized-key collision with a different exact source). Waiting is the
// current number of blocked subscribers.
type FlightStats struct {
	Leads      int64
	Shares     int64
	Promotions int64
	Bypasses   int64
	Waiting    int
}

// ShareRate returns Shares / (Leads + Shares + Bypasses) — the fraction
// of searcher constructions served by a concurrent leader's expansion —
// or zero before any arrival.
func (s FlightStats) ShareRate() float64 {
	if total := s.Leads + s.Shares + s.Bypasses; total > 0 {
		return float64(s.Shares) / float64(total)
	}
	return 0
}

// NewFlight builds an in-flight table quantizing source offsets like a
// Cache with the same quantum (zero or negative means DefaultQuantum).
func NewFlight(quantum float64) *Flight {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &Flight{quantum: quantum, tab: make(map[key]*flightEntry)}
}

// Ticket is a leadership claim on one in-flight key. The holder must call
// Finish exactly once — with the final snapshot on clean completion, or
// with nil to abdicate (promoting a waiter) — or subscribers block until
// their own contexts cancel. Finish is idempotent and nil-safe so callers
// can pair every ticket with a deferred Finish(nil).
type Ticket struct {
	f    *Flight
	k    key
	done bool
}

// Waiter is a pending subscription to a leader's result. Exactly one Wait
// call consumes it.
type Waiter struct {
	f           *Flight
	k           key
	ch          chan waitResult
	trace       uint64
	joined      time.Time
	leaderTrace uint64
}

// LeaderTrace returns the trace ID of the leader this waiter subscribed
// to (zero when the leader ran untraced). It names the flight the waiter
// joined; a promotion after the leader aborts does not rewrite it.
func (w *Waiter) LeaderTrace() uint64 { return w.leaderTrace }

// Key renders the flight key the waiter is blocked on, for trace spans
// and the in-flight view.
func (w *Waiter) Key() string { return w.k.String() }

// waitResult is a leader's hand-off: a published snapshot, or a
// promotion ticket when the leader aborted.
type waitResult struct {
	st *State
	tk *Ticket
}

// Join registers a searcher rooted at src. The first arrival at a key
// leads: it receives a Ticket and expands normally. A later arrival with
// the same exact source receives a Waiter when mayWait is set; callers
// pass mayWait=false when their query already holds a ticket (the
// deadlock rule above). Every other case — collision with a different
// exact source, or mayWait unset while a leader is in flight — is a
// bypass: both returns are nil and the searcher expands independently.
// A nil Flight returns (nil, nil): sharing disabled.
//
// trace is the joiner's trace ID (zero when the query runs untraced): a
// leader's ID is handed to later subscribers (Waiter.LeaderTrace) and
// into the lineage log, so a blocked query can name whose expansion it
// is waiting on.
func (f *Flight) Join(kind Kind, flavor uint8, src graph.Location, mayWait bool, trace uint64) (*Ticket, *Waiter) {
	if f == nil {
		return nil, nil
	}
	k := quantizedKey(kind, flavor, src, f.quantum)
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.tab[k]
	if !ok {
		f.tab[k] = &flightEntry{src: src, leaderTrace: trace}
		f.leads.Add(1)
		return &Ticket{f: f, k: k}, nil
	}
	if e.src == src && mayWait {
		w := &Waiter{
			f: f, k: k, ch: make(chan waitResult, 1),
			trace: trace, joined: time.Now(), leaderTrace: e.leaderTrace,
		}
		e.waiters = append(e.waiters, w)
		f.waiting.Add(1)
		return nil, w
	}
	f.bypasses.Add(1)
	return nil, nil
}

// Finish resolves the ticket's flight. A non-nil st is published: every
// subscriber receives it and the key clears. A nil st abdicates: the
// first waiter is promoted to leader (its Wait returns a fresh Ticket)
// and the rest keep waiting on it; with no waiters the key just clears.
// Idempotent; safe on a nil ticket.
func (t *Ticket) Finish(st *State) {
	if t == nil {
		return
	}
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	e := f.tab[t.k]
	if e == nil {
		return
	}
	if st == nil {
		f.promoteLocked(t.k, e)
		return
	}
	delete(f.tab, t.k)
	// Deliveries happen under f.mu so a concurrently cancelling waiter
	// either still sits in e.waiters (and is withdrawn before this runs)
	// or drains its channel under the same lock — a share can be counted
	// and then reversed, but never lost.
	for _, w := range e.waiters {
		w.ch <- waitResult{st: st}
	}
	f.shares.Add(int64(len(e.waiters)))
	if len(e.waiters) > 0 {
		ev := LineageEvent{Kind: "publish", Key: t.k.String(), Leader: e.leaderTrace}
		ev.Subscribers = make([]LineageSub, len(e.waiters))
		for i, w := range e.waiters {
			ev.Subscribers[i] = LineageSub{Trace: w.trace, Waited: time.Since(w.joined)}
		}
		f.appendLineageLocked(ev)
	}
}

// promoteLocked hands the entry's leadership to its first waiter, or
// clears the key when none remain. Caller holds f.mu.
func (f *Flight) promoteLocked(k key, e *flightEntry) {
	if len(e.waiters) == 0 {
		delete(f.tab, k)
		return
	}
	w := e.waiters[0]
	e.waiters = e.waiters[1:]
	e.leaderTrace = w.trace // later joiners subscribe to the new leader
	f.promotions.Add(1)
	f.leads.Add(1)
	w.ch <- waitResult{tk: &Ticket{f: f, k: k}}
	f.appendLineageLocked(LineageEvent{
		Kind: "promote", Key: k.String(), Leader: w.trace,
		Subscribers: []LineageSub{{Trace: w.trace, Waited: time.Since(w.joined)}},
	})
}

// Abdicate resolves the flight without a snapshot if nobody is subscribed
// to it, and reports whether nobody was: callers use it to skip the
// snapshot cost when the at-rest cache does not want the state either.
// With subscribers blocked on the flight the ticket stays live and the
// caller owes them a Finish(st). Checking and clearing under one lock
// keeps a subscriber that arrives in between from being promoted to redo
// an expansion that has just completed. Safe on a nil or resolved ticket
// (true: nobody is owed anything).
func (t *Ticket) Abdicate() bool {
	if t == nil {
		return true
	}
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if t.done {
		return true
	}
	if e := f.tab[t.k]; e != nil && len(e.waiters) > 0 {
		return false
	}
	t.done = true
	delete(f.tab, t.k)
	return true
}

// Wait blocks until the leader resolves the flight or ctx is done. It
// returns the published snapshot, or a promotion Ticket when the leader
// aborted and this waiter is next in line (exactly one of the two is
// non-nil on success). On ctx expiry it withdraws the subscription — or,
// if the leader resolved concurrently, reverses the delivery (handing a
// drained promotion to the next waiter) — and returns ctx's error. An
// already-expired ctx takes the cancel path without consuming a delivery,
// so cancellation behavior is deterministic under test.
func (w *Waiter) Wait(ctx context.Context) (*State, *Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, w.cancel(err)
	}
	select {
	case r := <-w.ch:
		w.f.waiting.Add(-1)
		return r.st, r.tk, nil
	case <-ctx.Done():
		return nil, nil, w.cancel(ctx.Err())
	}
}

// cancel withdraws the waiter under f.mu: either it is still subscribed
// (remove it), or the leader resolved first and an unconsumed delivery
// sits in the channel (drain it and reverse its counters; a drained
// promotion re-promotes the next waiter so the flight never loses its
// leader).
func (w *Waiter) cancel(err error) error {
	f := w.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if e := f.tab[w.k]; e != nil {
		for i, o := range e.waiters {
			if o == w {
				e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
				f.waiting.Add(-1)
				return err
			}
		}
	}
	select {
	case r := <-w.ch:
		switch {
		case r.st != nil:
			f.shares.Add(-1)
		case r.tk != nil:
			r.tk.done = true
			f.promotions.Add(-1)
			f.leads.Add(-1)
			if e := f.tab[w.k]; e != nil {
				f.promoteLocked(w.k, e)
			}
		}
	default:
	}
	f.waiting.Add(-1)
	return err
}

// Stats snapshots the flight counters. Safe on a nil Flight (all zeros).
func (f *Flight) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	return FlightStats{
		Leads:      f.leads.Load(),
		Shares:     f.shares.Load(),
		Promotions: f.promotions.Load(),
		Bypasses:   f.bypasses.Load(),
		Waiting:    int(f.waiting.Load()),
	}
}
