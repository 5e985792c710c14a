package distcache

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"roadskyline/internal/graph"
)

func flightState(src graph.Location) *State {
	return &State{
		Src:     src,
		Settled: map[graph.NodeID]float64{1: 2.5},
	}
}

func wantStats(t *testing.T, c *Cache, want FlightStats) {
	t.Helper()
	if got := c.FlightStats(); got != want {
		t.Fatalf("flight stats = %+v, want %+v", got, want)
	}
}

// lead acquires src on a sharing cache and fails unless the caller leads.
func lead(t *testing.T, c *Cache, kind Kind, flavor uint8, src graph.Location) *Ticket {
	t.Helper()
	j := c.Acquire(kind, flavor, src, true, 0)
	if j.Ticket == nil || j.Waiter != nil {
		t.Fatalf("Acquire = %+v, want a lead", j)
	}
	return j.Ticket
}

// wait acquires src on a sharing cache and fails unless the caller waits.
func wait(t *testing.T, c *Cache, kind Kind, flavor uint8, src graph.Location, trace uint64) *Waiter {
	t.Helper()
	j := c.Acquire(kind, flavor, src, true, trace)
	if j.Waiter == nil || j.Ticket != nil || j.State != nil || j.Found != NotLooked {
		t.Fatalf("Acquire = %+v, want only a waiter", j)
	}
	return j.Waiter
}

func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestFlightPublishFanOut: one leader, two waiters; the published
// snapshot reaches both and the in-flight half clears.
func TestFlightPublishFanOut(t *testing.T) {
	c := NewShared(Config{})
	src := graph.Location{Edge: 7, Offset: 0.25}
	tk := lead(t, c, KindAStar, 1, src)
	ws := []*Waiter{wait(t, c, KindAStar, 1, src, 0), wait(t, c, KindAStar, 1, src, 0)}
	wantStats(t, c, FlightStats{Leads: 1, Waiting: 2})

	st := flightState(src)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *Waiter) {
			defer wg.Done()
			j, err := w.Wait(context.Background())
			if err != nil || j != (Join{State: st}) {
				t.Errorf("Wait = (%+v, %v), want the published state", j, err)
			}
		}(w)
	}
	tk.Publish(st, true)
	tk.Publish(st, true) // idempotent
	wg.Wait()
	wantStats(t, c, FlightStats{Leads: 1, Shares: 2})
	// A capacity-0 cache keeps nothing and counts no lookup.
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("at-rest stats = %+v, want zeros", s)
	}

	// The key cleared: the next arrival leads afresh.
	lead(t, c, KindAStar, 1, src).Abort()
}

// TestFlightBypass: a ticket-holding query must not wait (mayWait=false),
// and a quantized-bucket collision with a different exact source never
// shares.
func TestFlightBypass(t *testing.T) {
	c := NewShared(Config{Quantum: 1e-3})
	src := graph.Location{Edge: 3, Offset: 0.5}
	tk := lead(t, c, KindDijkstra, 0, src)
	if j := c.Acquire(KindDijkstra, 0, src, false, 0); j != (Join{}) {
		t.Fatalf("mayWait=false Acquire = %+v, want bypass", j)
	}
	// Same bucket (offset within a quantum), different exact source.
	near := graph.Location{Edge: 3, Offset: 0.5 + 1e-5}
	if j := c.Acquire(KindDijkstra, 0, near, true, 0); j != (Join{}) {
		t.Fatalf("collision Acquire = %+v, want bypass", j)
	}
	// A different kind or flavor is a different key: it leads.
	tk3 := lead(t, c, KindAStar, 0, src)
	wantStats(t, c, FlightStats{Leads: 2, Bypasses: 2})
	tk.Abort()
	tk3.Abort()
	wantStats(t, c, FlightStats{Leads: 2, Bypasses: 2})
}

// TestFlightPromotion: an aborting leader promotes its first waiter in
// FIFO order; the promoted leader's publish reaches the remaining waiter.
func TestFlightPromotion(t *testing.T) {
	c := NewShared(Config{})
	src := graph.Location{Edge: 1, Offset: 0}
	tk := lead(t, c, KindAStar, 0, src)
	w1 := wait(t, c, KindAStar, 0, src, 0)
	w2 := wait(t, c, KindAStar, 0, src, 0)

	tk.Abort() // no snapshot
	j1, err := w1.Wait(context.Background())
	if err != nil || j1.State != nil || j1.Ticket == nil {
		t.Fatalf("w1.Wait = (%+v, %v), want a promotion ticket", j1, err)
	}
	wantStats(t, c, FlightStats{Leads: 2, Promotions: 1, Waiting: 1})

	st := flightState(src)
	j1.Ticket.Publish(st, false)
	if j2, err := w2.Wait(context.Background()); err != nil || j2 != (Join{State: st}) {
		t.Fatalf("w2.Wait = (%+v, %v), want the promoted leader's state", j2, err)
	}
	wantStats(t, c, FlightStats{Leads: 2, Shares: 1, Promotions: 1})
}

// TestFlightWaiterWithdraw: a waiter whose context expires before the
// leader resolves withdraws cleanly — the later publish counts no share
// for it.
func TestFlightWaiterWithdraw(t *testing.T) {
	c := NewShared(Config{})
	src := graph.Location{Edge: 2, Offset: 0.125}
	tk := lead(t, c, KindAStar, 2, src)
	w := wait(t, c, KindAStar, 2, src, 0)
	if _, err := w.Wait(cancelled()); err != context.Canceled {
		t.Fatalf("Wait on cancelled ctx = %v, want context.Canceled", err)
	}
	wantStats(t, c, FlightStats{Leads: 1})
	tk.Publish(flightState(src), false)
	wantStats(t, c, FlightStats{Leads: 1})
}

// TestFlightCancelDrainsDelivery: the leader publishes before the waiter
// cancels; the unconsumed delivery is drained and the share reversed.
func TestFlightCancelDrainsDelivery(t *testing.T) {
	c := NewShared(Config{})
	src := graph.Location{Edge: 5, Offset: 0.75}
	tk := lead(t, c, KindDijkstra, 0, src)
	w := wait(t, c, KindDijkstra, 0, src, 0)

	tk.Publish(flightState(src), false) // delivery now sits in w's channel
	if _, err := w.Wait(cancelled()); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	wantStats(t, c, FlightStats{Leads: 1})
}

// TestFlightCancelRePromotes: a cancelled waiter holding an unconsumed
// promotion hands leadership to the next waiter instead of orphaning the
// flight.
func TestFlightCancelRePromotes(t *testing.T) {
	c := NewShared(Config{})
	src := graph.Location{Edge: 9, Offset: 0.5}
	tk := lead(t, c, KindAStar, 0, src)
	w1 := wait(t, c, KindAStar, 0, src, 0)
	w2 := wait(t, c, KindAStar, 0, src, 0)

	tk.Abort() // promotes w1; the ticket sits unconsumed in w1's channel
	if _, err := w1.Wait(cancelled()); err != context.Canceled {
		t.Fatalf("w1.Wait = %v, want context.Canceled", err)
	}
	// w2 inherited leadership.
	j, err := w2.Wait(context.Background())
	if err != nil || j.State != nil || j.Ticket == nil {
		t.Fatalf("w2.Wait = (%+v, %v), want a promotion ticket", j, err)
	}
	wantStats(t, c, FlightStats{Leads: 2, Promotions: 1})
	j.Ticket.Abort()
	wantStats(t, c, FlightStats{Leads: 2, Promotions: 1})
}

// TestFlightAbdicate: a ticket with a live waiter refuses to abdicate and
// still owes the publish; without waiters it resolves on the spot and the
// key is free for the next leader, with no promotion counted.
func TestFlightAbdicate(t *testing.T) {
	c := NewShared(Config{})
	src := graph.Location{Edge: 4, Offset: 0.25}
	tk := lead(t, c, KindAStar, 0, src)
	w := wait(t, c, KindAStar, 0, src, 0)
	if tk.Abdicate() {
		t.Fatal("abdicated with a live waiter")
	}
	tk.Publish(flightState(src), false)
	if j, err := w.Wait(context.Background()); err != nil || j.State == nil {
		t.Fatalf("Wait = (%+v, %v), want the publish", j, err)
	}
	if !tk.Abdicate() {
		t.Fatal("resolved ticket refused to abdicate")
	}

	tk2 := lead(t, c, KindAStar, 0, src)
	if !tk2.Abdicate() {
		t.Fatal("refused to abdicate with no waiters")
	}
	lead(t, c, KindAStar, 0, src) // the key is free again
	wantStats(t, c, FlightStats{Leads: 3, Shares: 1})
}

// TestFlightNilSafety: the nil cache (no store) and the nil Ticket are
// inert, and a cache built by New never shares.
func TestFlightNilSafety(t *testing.T) {
	var c *Cache
	if j := c.Acquire(KindAStar, 0, graph.Location{Edge: 1}, true, 0); j != (Join{}) {
		t.Fatalf("nil cache Acquire = %+v, want the zero Join", j)
	}
	if got := c.FlightStats(); got != (FlightStats{}) {
		t.Fatalf("nil cache FlightStats = %+v, want zeros", got)
	}
	if c.Keeps() || c.Shares() {
		t.Fatal("nil cache keeps or shares")
	}
	var nt *Ticket
	nt.Abort()
	nt.Publish(flightState(graph.Location{}), true)
	if !nt.Abdicate() {
		t.Fatal("nil Ticket refused to abdicate")
	}

	rest := New(Config{Entries: 4})
	src := graph.Location{Edge: 1}
	for i := 0; i < 2; i++ {
		if j := rest.Acquire(KindAStar, 0, src, true, 0); j != (Join{Found: Miss}) {
			t.Fatalf("at-rest-only Acquire = %+v, want a plain miss", j)
		}
	}
	if got := rest.FlightStats(); got != (FlightStats{}) {
		t.Fatalf("at-rest-only cache counted flights %+v", got)
	}
}

// TestAcquireOrder pins the one lookup's order on a cache that both keeps
// and shares: a leader also reads the resident half (a hit here), a
// waiter counts neither a hit nor a miss, a bypass still reads the
// resident half, a collision misses, and a promoted waiter reads it when
// promoted.
func TestAcquireOrder(t *testing.T) {
	c := NewShared(Config{Entries: 4, Quantum: 1.0})
	src := graph.Location{Edge: 6, Offset: 0.25}
	near := graph.Location{Edge: 6, Offset: 0.375} // same bucket, other source
	rest := flightState(src)
	c.Put(KindAStar, 0, rest)

	j := c.Acquire(KindAStar, 0, src, true, 1)
	if j.Ticket == nil || j.State != rest || j.Found != Hit {
		t.Fatalf("leader Acquire = %+v, want a lead and a hit", j)
	}
	w := wait(t, c, KindAStar, 0, src, 2)
	if j2 := c.Acquire(KindAStar, 0, src, false, 3); j2 != (Join{State: rest, Found: Hit}) {
		t.Fatalf("ticket-holder Acquire = %+v, want a bypass and a hit", j2)
	}
	if j3 := c.Acquire(KindAStar, 0, near, true, 4); j3 != (Join{Found: Miss}) {
		t.Fatalf("collision Acquire = %+v, want a bypass and a miss", j3)
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits and 1 miss (the waiter counts neither)", s)
	}

	j.Ticket.Abort()
	jp, err := w.Wait(context.Background())
	if err != nil || jp.Ticket == nil || jp.State != rest || jp.Found != Hit {
		t.Fatalf("promoted Wait = (%+v, %v), want a ticket and a hit", jp, err)
	}
	st := flightState(src)
	jp.Ticket.Publish(st, true)
	if got, ok := c.Get(KindAStar, 0, src); !ok || got != st {
		t.Fatalf("Get after a keeping publish = (%v, %v), want the published state", got, ok)
	}
	wantStats(t, c, FlightStats{Leads: 2, Promotions: 1, Bypasses: 2})
}

// TestInFlightNeverEvicted: Put pressure on a full shard takes the
// resident half of an entry whose leader is still expanding, never the
// in-flight half — the leader's waiters still get its publish.
func TestInFlightNeverEvicted(t *testing.T) {
	c := NewShared(Config{Entries: 1, Quantum: 1.0}) // one shard of capacity 1
	src := graph.Location{Edge: 1, Offset: 0}
	c.Put(KindAStar, 0, flightState(src))
	tk := lead(t, c, KindAStar, 0, src)
	w := wait(t, c, KindAStar, 0, src, 0)
	for e := graph.EdgeID(2); e < 6; e++ {
		c.Put(KindAStar, 0, flightState(graph.Location{Edge: e}))
	}
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 4 {
		t.Fatalf("stats = %+v, want 1 resident and 4 evictions", s)
	}
	if j := c.Acquire(KindAStar, 0, src, false, 0); j.Ticket != nil {
		t.Fatal("the leader's in-flight entry was evicted: a second leader took the key")
	}
	st := flightState(src)
	tk.Publish(st, false)
	if j, err := w.Wait(context.Background()); err != nil || j.State != st {
		t.Fatalf("Wait = (%+v, %v), want the leader's publish", j, err)
	}
}

// TestKeyString pins the key format used in trace spans and the
// /debug/inflight view, and that a waiter reports the leader it joined.
func TestKeyString(t *testing.T) {
	c := NewShared(Config{Quantum: 1e-3})
	src := graph.Location{Edge: 3, Offset: 0.5}
	dij := c.Acquire(KindDijkstra, 0, src, true, 11).Ticket
	ast := c.Acquire(KindAStar, 2, src, true, 12).Ticket
	wd := wait(t, c, KindDijkstra, 0, src, 21)
	wa := wait(t, c, KindAStar, 2, src, 22)
	if got, want := wd.Key(), "dijkstra/f0/e3+500"; got != want {
		t.Errorf("dijkstra key %q, want %q", got, want)
	}
	if got, want := wa.Key(), "astar/f2/e3+500"; got != want {
		t.Errorf("astar key %q, want %q", got, want)
	}
	if wd.LeaderTrace() != 11 || wa.LeaderTrace() != 12 {
		t.Errorf("leader traces %d, %d, want 11, 12", wd.LeaderTrace(), wa.LeaderTrace())
	}
	// A later arrival waits on the promoted leader.
	dij.Abort()
	if j, err := wd.Wait(context.Background()); err != nil || j.Ticket == nil {
		t.Fatalf("Wait = (%+v, %v), want a promotion", j, err)
	}
	if w := wait(t, c, KindDijkstra, 0, src, 31); w.LeaderTrace() != 21 || !strings.HasPrefix(w.Key(), "dijkstra/") {
		t.Errorf("post-promotion waiter: leader %d key %q, want 21", w.LeaderTrace(), w.Key())
	}
	ast.Abort()
	wa.Wait(cancelled())
}

// TestFlightConcurrentStress: many goroutines racing on a handful of keys;
// counters must reconcile (leads + shares + bypasses = joins that resolved)
// and nothing may deadlock.
func TestFlightConcurrentStress(t *testing.T) {
	c := NewShared(Config{Entries: 1})
	srcs := []graph.Location{
		{Edge: 1, Offset: 0.25},
		{Edge: 2, Offset: 0.5},
	}
	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for r := 0; r < rounds; r++ {
				src := srcs[(g+r)%len(srcs)]
				j := c.Acquire(KindAStar, 0, src, true, 0)
				if j.Waiter != nil {
					var err error
					if j, err = j.Waiter.Wait(ctx); err != nil {
						t.Errorf("Wait: %v", err)
						return
					}
				}
				if j.Found == Hit && j.State.Src != src {
					t.Errorf("hit served source %v for %v", j.State.Src, src)
				}
				switch {
				case j.Ticket == nil:
				case r%3 == 0:
					j.Ticket.Abort() // promote
				default:
					j.Ticket.Publish(flightState(src), r%2 == 0)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.FlightStats()
	if st.Waiting != 0 {
		t.Fatalf("Waiting = %d after quiescence, want 0", st.Waiting)
	}
	if total := st.Leads + st.Shares + st.Bypasses; total != goroutines*rounds {
		t.Fatalf("leads %d + shares %d + bypasses %d = %d, want %d joins",
			st.Leads, st.Shares, st.Bypasses, total, goroutines*rounds)
	}
	if s := c.Stats(); s.Entries > 1 {
		t.Fatalf("%d resident entries beyond capacity 1", s.Entries)
	}
}
