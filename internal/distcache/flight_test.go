package distcache

import (
	"context"
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

func wantStats(t *testing.T, f *Flight, want FlightStats) {
	t.Helper()
	if got := f.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestFlightPublishFanOut: one leader, two subscribers; the published
// snapshot reaches both and the key clears.
func TestFlightPublishFanOut(t *testing.T) {
	f := NewFlight(0)
	src := graph.Location{Edge: 7, Offset: 0.25}
	tk, w := f.Join(KindAStar, 1, src, true, 0)
	if tk == nil || w != nil {
		t.Fatalf("first Join: ticket=%v waiter=%v, want lead", tk, w)
	}
	var ws [2]*Waiter
	for i := range ws {
		tk2, w2 := f.Join(KindAStar, 1, src, true, 0)
		if tk2 != nil || w2 == nil {
			t.Fatalf("Join %d: ticket=%v waiter=%v, want waiter", i, tk2, w2)
		}
		ws[i] = w2
	}
	wantStats(t, f, FlightStats{Leads: 1, Waiting: 2})

	st := flightState(src)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *Waiter) {
			defer wg.Done()
			got, ptk, err := w.Wait(context.Background())
			if err != nil || ptk != nil || got != st {
				t.Errorf("Wait = (%v, %v, %v), want the published state", got, ptk, err)
			}
		}(w)
	}
	tk.Finish(st)
	tk.Finish(st) // idempotent
	wg.Wait()
	wantStats(t, f, FlightStats{Leads: 1, Shares: 2})

	// The key cleared: the next arrival leads afresh.
	tk3, w3 := f.Join(KindAStar, 1, src, true, 0)
	if tk3 == nil || w3 != nil {
		t.Fatalf("Join after publish: ticket=%v waiter=%v, want lead", tk3, w3)
	}
	tk3.Finish(nil)
}

// TestFlightBypass: a ticket-holding query must not wait (mayWait=false),
// and a quantized-bucket collision with a different exact source never
// shares.
func TestFlightBypass(t *testing.T) {
	f := NewFlight(1e-3)
	src := graph.Location{Edge: 3, Offset: 0.5}
	tk, _ := f.Join(KindDijkstra, 0, src, true, 0)
	if tk == nil {
		t.Fatal("first Join did not lead")
	}
	if tk2, w2 := f.Join(KindDijkstra, 0, src, false, 0); tk2 != nil || w2 != nil {
		t.Fatalf("mayWait=false Join = (%v, %v), want bypass", tk2, w2)
	}
	// Same bucket (offset within a quantum), different exact source.
	near := graph.Location{Edge: 3, Offset: 0.5 + 1e-5}
	if tk2, w2 := f.Join(KindDijkstra, 0, near, true, 0); tk2 != nil || w2 != nil {
		t.Fatalf("collision Join = (%v, %v), want bypass", tk2, w2)
	}
	// A different kind or flavor is a different key: it leads.
	tk3, _ := f.Join(KindAStar, 0, src, true, 0)
	if tk3 == nil {
		t.Fatal("different-kind Join did not lead")
	}
	wantStats(t, f, FlightStats{Leads: 2, Bypasses: 2})
	tk.Finish(nil)
	tk3.Finish(nil)
	wantStats(t, f, FlightStats{Leads: 2, Bypasses: 2})
}

// TestFlightPromotion: an abdicating leader promotes its first waiter in
// FIFO order; the promoted leader's publish reaches the remaining waiter.
func TestFlightPromotion(t *testing.T) {
	f := NewFlight(0)
	src := graph.Location{Edge: 1, Offset: 0}
	tk, _ := f.Join(KindAStar, 0, src, true, 0)
	_, w1 := f.Join(KindAStar, 0, src, true, 0)
	_, w2 := f.Join(KindAStar, 0, src, true, 0)

	tk.Finish(nil) // abort: no snapshot
	st1, ptk, err := w1.Wait(context.Background())
	if err != nil || st1 != nil || ptk == nil {
		t.Fatalf("w1.Wait = (%v, %v, %v), want promotion ticket", st1, ptk, err)
	}
	wantStats(t, f, FlightStats{Leads: 2, Promotions: 1, Waiting: 1})

	st := flightState(src)
	ptk.Finish(st)
	st2, ptk2, err := w2.Wait(context.Background())
	if err != nil || ptk2 != nil || st2 != st {
		t.Fatalf("w2.Wait = (%v, %v, %v), want the promoted leader's state", st2, ptk2, err)
	}
	wantStats(t, f, FlightStats{Leads: 2, Shares: 1, Promotions: 1})
}

// TestFlightWaiterWithdraw: a waiter whose context expires before the
// leader resolves withdraws cleanly — the later publish counts no share
// for it.
func TestFlightWaiterWithdraw(t *testing.T) {
	f := NewFlight(0)
	src := graph.Location{Edge: 2, Offset: 0.125}
	tk, _ := f.Join(KindAStar, 2, src, true, 0)
	_, w := f.Join(KindAStar, 2, src, true, 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := w.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait on cancelled ctx = %v, want context.Canceled", err)
	}
	wantStats(t, f, FlightStats{Leads: 1})
	tk.Finish(flightState(src))
	wantStats(t, f, FlightStats{Leads: 1})
}

// TestFlightCancelDrainsDelivery: the leader publishes before the waiter
// cancels; the unconsumed delivery is drained and the share reversed.
func TestFlightCancelDrainsDelivery(t *testing.T) {
	f := NewFlight(0)
	src := graph.Location{Edge: 5, Offset: 0.75}
	tk, _ := f.Join(KindDijkstra, 0, src, true, 0)
	_, w := f.Join(KindDijkstra, 0, src, true, 0)

	tk.Finish(flightState(src)) // delivery now sits in w's channel
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := w.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	wantStats(t, f, FlightStats{Leads: 1})
}

// TestFlightCancelRePromotes: a cancelled waiter holding an unconsumed
// promotion hands leadership to the next waiter instead of orphaning the
// flight.
func TestFlightCancelRePromotes(t *testing.T) {
	f := NewFlight(0)
	src := graph.Location{Edge: 9, Offset: 0.5}
	tk, _ := f.Join(KindAStar, 0, src, true, 0)
	_, w1 := f.Join(KindAStar, 0, src, true, 0)
	_, w2 := f.Join(KindAStar, 0, src, true, 0)

	tk.Finish(nil) // promotes w1; the ticket sits unconsumed in w1's channel
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := w1.Wait(ctx); err != context.Canceled {
		t.Fatalf("w1.Wait = %v, want context.Canceled", err)
	}
	// w2 inherited leadership.
	st, ptk, err := w2.Wait(context.Background())
	if err != nil || st != nil || ptk == nil {
		t.Fatalf("w2.Wait = (%v, %v, %v), want promotion ticket", st, ptk, err)
	}
	wantStats(t, f, FlightStats{Leads: 2, Promotions: 1})
	ptk.Finish(nil)
	wantStats(t, f, FlightStats{Leads: 2, Promotions: 1})
}

// TestFlightAbdicate: a ticket with a live waiter refuses to abdicate and
// still owes the publish; without waiters it resolves on the spot and the
// key is free for the next leader, with no promotion counted.
func TestFlightAbdicate(t *testing.T) {
	f := NewFlight(0)
	src := graph.Location{Edge: 4, Offset: 0.25}
	tk, _ := f.Join(KindAStar, 0, src, true, 0)
	_, w := f.Join(KindAStar, 0, src, true, 0)
	if tk.Abdicate() {
		t.Fatal("abdicated with a live waiter")
	}
	tk.Finish(flightState(src))
	if st, _, err := w.Wait(context.Background()); err != nil || st == nil {
		t.Fatalf("Wait = (%v, %v), want the publish", st, err)
	}
	if !tk.Abdicate() {
		t.Fatal("resolved ticket refused to abdicate")
	}

	tk2, w2 := f.Join(KindAStar, 0, src, true, 0)
	if tk2 == nil || w2 != nil {
		t.Fatalf("Join after publish = (%v, %v), want a fresh lead", tk2, w2)
	}
	if !tk2.Abdicate() {
		t.Fatal("refused to abdicate with no waiters")
	}
	if tk3, _ := f.Join(KindAStar, 0, src, true, 0); tk3 == nil {
		t.Fatal("key still held after abdication")
	}
	wantStats(t, f, FlightStats{Leads: 3, Shares: 1})
}

// TestFlightNilSafety: the nil Flight (sharing disabled) and nil Ticket
// are inert.
func TestFlightNilSafety(t *testing.T) {
	var f *Flight
	tk, w := f.Join(KindAStar, 0, graph.Location{Edge: 1}, true, 0)
	if tk != nil || w != nil {
		t.Fatalf("nil Flight Join = (%v, %v), want (nil, nil)", tk, w)
	}
	if got := f.Stats(); got != (FlightStats{}) {
		t.Fatalf("nil Flight Stats = %+v, want zeros", got)
	}
	var nt *Ticket
	nt.Finish(nil)
	nt.Finish(flightState(graph.Location{}))
	if !nt.Abdicate() {
		t.Fatal("nil Ticket refused to abdicate")
	}
}

// TestFlightConcurrentStress: many goroutines racing on a handful of keys;
// counters must reconcile (leads + shares + bypasses = joins that resolved)
// and nothing may deadlock.
func TestFlightConcurrentStress(t *testing.T) {
	f := NewFlight(0)
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
				tk, w := f.Join(KindAStar, 0, src, true, 0)
				if w != nil {
					st, ptk, err := w.Wait(ctx)
					if err != nil {
						t.Errorf("Wait: %v", err)
						return
					}
					if st != nil {
						continue
					}
					tk = ptk
				}
				if tk != nil {
					if r%3 == 0 {
						tk.Finish(nil) // abort path: promote
					} else {
						tk.Finish(flightState(src))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := f.Stats()
	if st.Waiting != 0 {
		t.Fatalf("Waiting = %d after quiescence, want 0", st.Waiting)
	}
	if total := st.Leads + st.Shares + st.Bypasses; total != goroutines*rounds {
		t.Fatalf("leads %d + shares %d + bypasses %d = %d, want %d joins",
			st.Leads, st.Shares, st.Bypasses, total, goroutines*rounds)
	}
}
