package distcache

import (
	"context"
	"slices"
	"testing"

	"roadskyline/internal/graph"
)

// fuzzSrcs are the sources FuzzDistCache draws from, under Quantum 1: the
// first two are distinct exact sources in one bucket (a collision), the
// other two have keys of their own.
var fuzzSrcs = []graph.Location{
	{Edge: 0, Offset: 0.125},
	{Edge: 0, Offset: 0.25},
	{Edge: 1, Offset: 0.125},
	{Edge: 2, Offset: 0.125},
}

// fuzzCaps are the at-rest capacities a fuzz input picks from: none
// (sharing only), one slot, and four shards of one slot each.
var fuzzCaps = []int{0, 1, 4}

// The operations of a fuzz input, one per byte: op = b % numOps, and
// b / numOps picks the source, ticket or waiter.
const (
	opAcquireWait = iota
	opAcquireNoWait
	opPublish
	opPublishKeep
	opAbort
	opAbdicate
	opConsume      // Wait on a waiter whose delivery has arrived
	opCancelBefore // cancel a waiter still blocked on its leader
	opCancelAfter  // cancel a waiter whose delivery has arrived
	opPut
	numOps
)

type modelTicket struct {
	tk   *Ticket
	k    key
	src  graph.Location
	done bool
}

// A model waiter is pending until its leader resolves, then holds a share
// or a promotion until Wait consumes or cancel reverses it.
const (
	waitPending = iota
	waitShare
	waitPromotion
	waitDone
)

type modelWaiter struct {
	w     *Waiter
	k     key
	src   graph.Location
	trace uint64
	state int
	st    *State // the share delivered
}

type modelFlight struct {
	src     graph.Location
	leader  uint64
	waiters []*modelWaiter
}

type resident struct {
	k  key
	st *State
}

// cacheModel is the reference FuzzDistCache holds a Cache to: a per-shard
// LRU list of resident states, a table of in-flight leaders with their
// waiters in arrival order, and the counters every operation must move.
type cacheModel struct {
	t         *testing.T
	c         *Cache
	perShard  int                   // resident states a shard may hold, from the config
	res       map[*shard][]resident // most recently used first
	flights   map[key]*modelFlight
	tickets   []*modelTicket
	waiters   []*modelWaiter
	stats     Stats
	fstats    FlightStats
	joins     int64 // Acquire calls
	withdrawn int64 // waiters cancelled: their joins count nothing
	trace     uint64
}

func (m *cacheModel) keyOf(src graph.Location) key { return m.c.keyFor(KindAStar, 0, src) }

// lookup is the model's at-rest read.
func (m *cacheModel) lookup(k key, src graph.Location) (*State, Found) {
	s := m.c.shardFor(k)
	if m.perShard == 0 {
		return nil, NotLooked
	}
	rs := m.res[s]
	for i, r := range rs {
		if r.k == k && r.st.Src == src {
			m.res[s] = append([]resident{r}, slices.Delete(rs, i, i+1)...)
			m.stats.Hits++
			return r.st, Hit
		}
	}
	m.stats.Misses++
	return nil, Miss
}

// store is the model's Put.
func (m *cacheModel) store(k key, st *State) {
	s := m.c.shardFor(k)
	if m.perShard == 0 {
		return
	}
	rs := m.res[s]
	i := slices.IndexFunc(rs, func(r resident) bool { return r.k == k })
	if i >= 0 {
		rs = slices.Delete(rs, i, i+1)
	} else {
		for len(rs) >= m.perShard {
			rs = rs[:len(rs)-1]
			m.stats.Evictions++
		}
	}
	m.res[s] = append([]resident{{k, st}}, rs...)
	m.stats.Stores++
}

// checkLookup holds a Join's at-rest half to the model's.
func (m *cacheModel) checkLookup(j Join, k key, src graph.Location) {
	m.t.Helper()
	st, found := m.lookup(k, src)
	if j.Found != found || j.State != st {
		m.t.Fatalf("at-rest half (%v, %v), model (%v, %v)", j.State, j.Found, st, found)
	}
	if j.Found == Hit && j.State.Src != src {
		m.t.Fatalf("a hit for %v served a state from %v", src, j.State.Src)
	}
}

func (m *cacheModel) acquire(src graph.Location, mayWait bool) {
	m.t.Helper()
	m.trace++
	m.joins++
	k := m.keyOf(src)
	j := m.c.Acquire(KindAStar, 0, src, mayWait, m.trace)
	fl := m.flights[k]
	switch {
	case fl != nil && fl.src == src && mayWait:
		if j.Waiter == nil || j.Ticket != nil || j.State != nil || j.Found != NotLooked {
			m.t.Fatalf("Acquire = %+v, model waits", j)
		}
		if got := j.Waiter.LeaderTrace(); got != fl.leader {
			m.t.Fatalf("waiter names leader %d, model %d", got, fl.leader)
		}
		mw := &modelWaiter{w: j.Waiter, k: k, src: src, trace: m.trace}
		fl.waiters = append(fl.waiters, mw)
		m.waiters = append(m.waiters, mw)
		m.fstats.Waiting++
		return
	case fl != nil:
		if j.Ticket != nil || j.Waiter != nil {
			m.t.Fatalf("Acquire = %+v, model bypasses", j)
		}
		m.fstats.Bypasses++
	default:
		if j.Ticket == nil || j.Waiter != nil {
			m.t.Fatalf("Acquire = %+v, model leads", j)
		}
		m.fstats.Leads++
		m.flights[k] = &modelFlight{src: src, leader: m.trace}
		m.tickets = append(m.tickets, &modelTicket{tk: j.Ticket, k: k, src: src})
	}
	m.checkLookup(j, k, src)
}

// promote is the model's baton pass.
func (m *cacheModel) promote(k key) {
	fl := m.flights[k]
	if len(fl.waiters) == 0 {
		delete(m.flights, k)
		return
	}
	w := fl.waiters[0]
	fl.waiters = fl.waiters[1:]
	fl.leader = w.trace
	w.state = waitPromotion
	m.fstats.Promotions++
	m.fstats.Leads++
}

func (m *cacheModel) publish(mt *modelTicket, keep bool) {
	st := &State{Src: mt.src}
	mt.tk.Publish(st, keep)
	if mt.done {
		return
	}
	mt.done = true
	fl := m.flights[mt.k]
	for _, w := range fl.waiters {
		w.state, w.st = waitShare, st
	}
	m.fstats.Shares += int64(len(fl.waiters))
	delete(m.flights, mt.k)
	if keep {
		m.store(mt.k, st)
	}
}

func (m *cacheModel) abort(mt *modelTicket) {
	mt.tk.Abort()
	if !mt.done {
		mt.done = true
		m.promote(mt.k)
	}
}

func (m *cacheModel) abdicate(mt *modelTicket) {
	m.t.Helper()
	want := mt.done || len(m.flights[mt.k].waiters) == 0
	if got := mt.tk.Abdicate(); got != want {
		m.t.Fatalf("Abdicate = %v, model %v", got, want)
	}
	if want && !mt.done {
		mt.done = true
		delete(m.flights, mt.k)
	}
}

func (m *cacheModel) consume(mw *modelWaiter) {
	m.t.Helper()
	j, err := mw.w.Wait(context.Background())
	if err != nil {
		m.t.Fatalf("Wait on a delivered waiter: %v", err)
	}
	m.fstats.Waiting--
	if mw.state == waitShare {
		if j != (Join{State: mw.st}) {
			m.t.Fatalf("Wait = %+v, model shares %p", j, mw.st)
		}
	} else {
		if j.Ticket == nil || j.Waiter != nil {
			m.t.Fatalf("Wait = %+v, model promotes", j)
		}
		m.tickets = append(m.tickets, &modelTicket{tk: j.Ticket, k: mw.k, src: mw.src})
		m.checkLookup(j, mw.k, mw.src)
	}
	mw.state = waitDone
}

func (m *cacheModel) cancel(mw *modelWaiter) {
	m.t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	stop()
	if _, err := mw.w.Wait(ctx); err != context.Canceled {
		m.t.Fatalf("Wait on a cancelled context = %v", err)
	}
	switch mw.state {
	case waitPending:
		fl := m.flights[mw.k]
		fl.waiters = slices.DeleteFunc(fl.waiters, func(o *modelWaiter) bool { return o == mw })
	case waitShare:
		m.fstats.Shares--
	case waitPromotion:
		m.fstats.Promotions--
		m.fstats.Leads--
		m.promote(mw.k)
	}
	m.fstats.Waiting--
	m.withdrawn++
	mw.state = waitDone
}

// pick returns the arg-th item matching keep, or nil.
func pick[T any](items []*T, arg int, keep func(*T) bool) *T {
	var match []*T
	for _, it := range items {
		if keep(it) {
			match = append(match, it)
		}
	}
	if len(match) == 0 {
		return nil
	}
	return match[arg%len(match)]
}

func (m *cacheModel) apply(op, arg int) {
	delivered := func(w *modelWaiter) bool { return w.state == waitShare || w.state == waitPromotion }
	anyTicket := func(*modelTicket) bool { return true }
	switch op {
	case opAcquireWait, opAcquireNoWait:
		m.acquire(fuzzSrcs[arg%len(fuzzSrcs)], op == opAcquireWait)
	case opPublish, opPublishKeep:
		if mt := pick(m.tickets, arg, anyTicket); mt != nil {
			m.publish(mt, op == opPublishKeep)
		}
	case opAbort:
		if mt := pick(m.tickets, arg, anyTicket); mt != nil {
			m.abort(mt)
		}
	case opAbdicate:
		if mt := pick(m.tickets, arg, anyTicket); mt != nil {
			m.abdicate(mt)
		}
	case opConsume:
		if mw := pick(m.waiters, arg, delivered); mw != nil {
			m.consume(mw)
		}
	case opCancelBefore:
		if mw := pick(m.waiters, arg, func(w *modelWaiter) bool { return w.state == waitPending }); mw != nil {
			m.cancel(mw)
		}
	case opCancelAfter:
		if mw := pick(m.waiters, arg, delivered); mw != nil {
			m.cancel(mw)
		}
	case opPut:
		src := fuzzSrcs[arg%len(fuzzSrcs)]
		st := &State{Src: src}
		m.c.Put(KindAStar, 0, st)
		m.store(m.keyOf(src), st)
	}
}

// check holds the cache to the model after an operation: every counter,
// each shard's LRU order, and the invariants — resident states within
// capacity, every in-flight entry present (never evicted) with its waiters
// in order, no entry with neither half, and leads + shares + bypasses
// equal to the joins that resolved.
func (m *cacheModel) check() {
	m.t.Helper()
	want := m.stats
	for _, rs := range m.res {
		want.Entries += len(rs)
	}
	if got := m.c.Stats(); got != want {
		m.t.Fatalf("stats %+v, model %+v", got, want)
	}
	if got := m.c.FlightStats(); got != m.fstats {
		m.t.Fatalf("flight stats %+v, model %+v", got, m.fstats)
	}
	inFlight := 0
	for i := range m.c.shards {
		s := &m.c.shards[i]
		if s.lru.Len() > m.perShard {
			m.t.Fatalf("shard %d holds %d resident states, capacity %d", i, s.lru.Len(), m.perShard)
		}
		rs := m.res[s]
		n := 0
		for el := s.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			if n >= len(rs) || e.key != rs[n].k || e.state != rs[n].st || e.el != el {
				m.t.Fatalf("shard %d LRU position %d disagrees with the model %+v", i, n, rs)
			}
			n++
		}
		for k, e := range s.at {
			if e.key != k || (e.fl == nil && e.el == nil) {
				m.t.Fatalf("shard %d keeps an empty or misfiled entry %+v", i, e)
			}
			if e.fl != nil {
				inFlight++
			}
		}
	}
	if inFlight != len(m.flights) {
		m.t.Fatalf("%d entries in flight, model %d", inFlight, len(m.flights))
	}
	for k, fl := range m.flights {
		e := m.c.shardFor(k).at[k]
		if e == nil || e.fl == nil {
			m.t.Fatalf("in-flight entry %v is gone", k)
		}
		if e.fl.src != fl.src || e.fl.leader != fl.leader || len(e.fl.waiters) != len(fl.waiters) {
			m.t.Fatalf("in-flight entry %v = %+v, model %+v", k, e.fl, fl)
		}
		for i, w := range fl.waiters {
			if e.fl.waiters[i] != w.w {
				m.t.Fatalf("in-flight entry %v waiter %d out of order", k, i)
			}
		}
	}
	pending := int64(0)
	for _, w := range m.waiters {
		if w.state == waitPending {
			pending++
		}
	}
	if got, want := m.fstats.Leads+m.fstats.Shares+m.fstats.Bypasses, m.joins-pending-m.withdrawn; got != want {
		m.t.Fatalf("leads + shares + bypasses = %d, want the %d joins that resolved", got, want)
	}
}

// FuzzDistCache runs sequences of acquires (with and without mayWait),
// publishes (keeping the state at rest or not), aborts, abdications,
// waits, cancellations before and after delivery, and Put pressure over
// three keys — two exact sources collide in one of them — at capacities
// 0, 1 and 4, checking the cache against cacheModel after every operation.
// At the end every ticket is resolved: nobody may still be waiting.
func FuzzDistCache(f *testing.F) {
	seed := func(capIdx uint8, ops ...[2]int) {
		b := make([]byte, len(ops))
		for i, o := range ops {
			b[i] = byte(o[0] + numOps*o[1])
		}
		f.Add(capIdx, b)
	}
	for capIdx := uint8(0); capIdx < 3; capIdx++ {
		// Publish fan-out: one leader, two waiters, both share.
		seed(capIdx, [2]int{opAcquireWait, 0}, [2]int{opAcquireWait, 0}, [2]int{opAcquireWait, 0},
			[2]int{opPublishKeep, 0}, [2]int{opConsume, 0}, [2]int{opConsume, 0}, [2]int{opAcquireWait, 0})
		// Bypass: a ticket-holder may not wait; a bucket collision never shares.
		seed(capIdx, [2]int{opAcquireWait, 0}, [2]int{opAcquireNoWait, 0}, [2]int{opAcquireWait, 1},
			[2]int{opAbort, 0})
		// Promotion, then the promoted leader's publish.
		seed(capIdx, [2]int{opPut, 0}, [2]int{opAcquireWait, 0}, [2]int{opAcquireWait, 0}, [2]int{opAcquireWait, 0},
			[2]int{opAbort, 0}, [2]int{opConsume, 0}, [2]int{opPublish, 1}, [2]int{opConsume, 0})
		// Withdraw before delivery; drain a delivered share.
		seed(capIdx, [2]int{opAcquireWait, 2}, [2]int{opAcquireWait, 2}, [2]int{opAcquireWait, 2},
			[2]int{opCancelBefore, 0}, [2]int{opPublish, 0}, [2]int{opCancelAfter, 0})
		// A cancelled promotion re-promotes the next waiter.
		seed(capIdx, [2]int{opAcquireWait, 3}, [2]int{opAcquireWait, 3}, [2]int{opAcquireWait, 3},
			[2]int{opAbort, 0}, [2]int{opCancelAfter, 0}, [2]int{opConsume, 0}, [2]int{opAbort, 1})
		// Abdicate refuses with a waiter, succeeds without.
		seed(capIdx, [2]int{opAcquireWait, 0}, [2]int{opAcquireWait, 0}, [2]int{opAbdicate, 0},
			[2]int{opPublish, 0}, [2]int{opConsume, 0}, [2]int{opAbdicate, 0}, [2]int{opAcquireWait, 0},
			[2]int{opAbdicate, 1})
		// Put pressure on an entry that is resident and in flight.
		seed(capIdx, [2]int{opPut, 0}, [2]int{opAcquireWait, 0}, [2]int{opAcquireWait, 0},
			[2]int{opPut, 2}, [2]int{opPut, 3}, [2]int{opPut, 1}, [2]int{opAcquireWait, 0},
			[2]int{opPublishKeep, 0}, [2]int{opConsume, 0}, [2]int{opAcquireWait, 1})
	}
	f.Fuzz(func(t *testing.T, capIdx uint8, ops []byte) {
		entries := fuzzCaps[int(capIdx)%len(fuzzCaps)]
		m := &cacheModel{
			t:       t,
			c:       NewShared(Config{Entries: entries, Quantum: 1}),
			res:     make(map[*shard][]resident),
			flights: make(map[key]*modelFlight),
		}
		if entries > 0 {
			m.perShard = entries / len(m.c.shards)
		}
		for _, b := range ops {
			m.apply(int(b)%numOps, int(b)/numOps)
			m.check()
		}
		// Resolve every ticket, consuming deliveries as they land.
		for progressed := true; progressed; {
			progressed = false
			for i := 0; i < len(m.waiters); i++ {
				if w := m.waiters[i]; w.state == waitShare || w.state == waitPromotion {
					m.consume(w)
					progressed = true
				}
			}
			for i := 0; i < len(m.tickets); i++ {
				if mt := m.tickets[i]; !mt.done {
					m.publish(mt, false)
					progressed = true
				}
			}
			m.check()
		}
		if got := m.c.FlightStats().Waiting; got != 0 {
			t.Fatalf("%d waiters still counted once every ticket resolved", got)
		}
		for _, w := range m.waiters {
			if w.state != waitDone || len(w.w.ch) != 0 {
				t.Fatalf("waiter %d left blocked or undelivered", w.trace)
			}
		}
	})
}
