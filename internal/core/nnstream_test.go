package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/graph"
	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
	"roadskyline/internal/testnet"
)

// The stream tests hold one nnStream to a brute-force order. The stream is
// driven as LBC drives it — against a skyline that grows with what it emits —
// but the vectors come from full Dijkstra sweeps, so nothing the stream is
// tested against was computed by the code under test.

// streamCase is one query for one stream.
type streamCase struct {
	env   *Env
	pts   []graph.Location
	src   int
	attrs bool
	opts  Options
}

// vectors returns every object's oracle vector: network distances to the
// query points by full Dijkstra sweeps, then the attributes.
func (c streamCase) vectors() [][]float64 {
	vecs := bruteforce.DistanceMatrix(c.env.G, c.env.Objects, c.pts)
	if c.attrs {
		for i, row := range vecs {
			vecs[i] = append(row, c.env.Objects[i].Attrs...)
		}
	}
	return vecs
}

// drain runs the case's stream to exhaustion against the skyline its own
// emissions build out of vecs, and returns the emitted candidates in order,
// the skyline length before each emission, and the skyline.
func (c streamCase) drain(t testing.TB, vecs [][]float64) (emitted []srcCand, skyAt []int, sky [][]float64) {
	t.Helper()
	opts := c.opts
	opts.ColdCache = true
	it, err := NewLBCIterator(context.Background(), c.env, Query{Points: c.pts, UseAttrs: c.attrs}, opts)
	if err != nil {
		t.Fatalf("NewLBCIterator: %v", err)
	}
	defer it.Close()
	n := len(c.pts)
	if it.n != n {
		t.Fatalf("query points %v are not distinct", c.pts)
	}
	s := newNNStream(c.env, it.q, it.qPts, c.src, it.searchers, &sky)
	for {
		cand, ok, err := s.next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if !ok {
			break
		}
		emitted, skyAt = append(emitted, cand), append(skyAt, len(sky))
		if v := vecs[cand.id]; !unreachableVec(v, n) && !skyline.DominatedBy(v, sky) {
			sky = append(sky, v)
		}
	}
	if got := len(emitted) + s.dropped; s.confirmed != len(emitted) || got > len(c.env.Objects) {
		t.Errorf("%d emitted, %d confirmed, %d dropped of %d objects", len(emitted), s.confirmed, s.dropped, len(c.env.Objects))
	}
	return emitted, skyAt, sky
}

// check drains the case twice and holds the stream to its contract:
//
//   - objects leave in non-decreasing network distance from the source, each
//     with the oracle's distance, none twice;
//   - an object that never leaves was dropped for cause: a skyline point
//     found no later than the stream passed the object's distance strictly
//     dominates it (the stream can only have dropped it before then, against
//     the skyline of that time);
//   - the second run emits the same ids in the same order.
func (c streamCase) check(t testing.TB) {
	t.Helper()
	vecs := c.vectors()
	emitted, skyAt, sky := c.drain(t, vecs)
	seen := make(map[graph.ObjectID]bool)
	prev := math.Inf(-1)
	for i, cand := range emitted {
		want := vecs[cand.id][c.src]
		if cand.dist < prev {
			t.Errorf("emission %d: object %d at %v after %v", i, cand.id, cand.dist, prev)
		}
		if cand.dist != want && math.Abs(cand.dist-want) > 1e-9 {
			t.Errorf("emission %d: object %d at %v, oracle %v", i, cand.id, cand.dist, want)
		}
		if seen[cand.id] {
			t.Errorf("emission %d: object %d emitted twice", i, cand.id)
		}
		seen[cand.id], prev = true, cand.dist
	}
	for id, v := range vecs {
		if seen[graph.ObjectID(id)] {
			continue
		}
		// The skyline as it stood when the stream first emitted beyond the
		// object's distance (all of it when it never did).
		known := len(sky)
		for i, cand := range emitted {
			if cand.dist > v[c.src]+1e-9 {
				known = skyAt[i]
				break
			}
		}
		if !skyline.DominatedBy(v, sky[:known]) {
			t.Errorf("object %d (vector %v) was never emitted and none of the %d skyline points known by then dominates it", id, v, known)
		}
	}
	again, _, _ := c.drain(t, vecs)
	if !slices.EqualFunc(emitted, again, func(a, b srcCand) bool { return a.id == b.id && a.dist == b.dist }) {
		t.Errorf("two runs of the same query emitted different sequences")
	}
}

// randomStreamEnv builds a random network for the stream tests. twins doubles
// every object's location (co-located objects: equal vectors); onObject puts
// query point 0 on top of an object; two islands make +Inf heads.
func randomStreamEnv(t testing.TB, rng *rand.Rand, nodes, objects, nq, attrs int, twins, onObject, islands bool) (*Env, []graph.Location) {
	t.Helper()
	var g *graph.Graph
	if islands {
		g = islandsGraph(rng, nodes/2+2)
	} else {
		g = testnet.RandomGraph(rng, nodes)
	}
	objs := testnet.RandomObjects(rng, g, objects, attrs)
	if twins {
		for i := 0; i+1 < len(objs); i += 2 {
			objs[i+1].Loc = objs[i].Loc
		}
	}
	env, err := NewEnv(g, objs, EnvConfig{})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	pts := testnet.RandomLocations(rng, g, nq)
	if onObject {
		pts[0] = objs[rng.Intn(len(objs))].Loc
	}
	return env, pts
}

func TestNNStream(t *testing.T) {
	type namedCase struct {
		name string
		c    streamCase
	}
	var cases []namedCase
	add := func(name string, c streamCase) {
		for src := range c.pts {
			c.src = src
			cases = append(cases, namedCase{name, c})
		}
	}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 12; trial++ {
		env, pts := randomStreamEnv(t, rng, 40+rng.Intn(120), 20+rng.Intn(80), 1+rng.Intn(4), 0, trial%3 == 1, trial%4 == 2, false)
		add("random", streamCase{env: env, pts: pts})
		add("random/nolandmarks", streamCase{env: env, pts: pts, opts: Options{DisableLandmarks: true}})
		add("random/noheuristic", streamCase{env: env, pts: pts, opts: Options{DisableAStarHeuristic: true}})
	}
	for trial := 0; trial < 6; trial++ {
		env, pts := randomStreamEnv(t, rng, 60+rng.Intn(60), 30+rng.Intn(60), 2+rng.Intn(2), 1+rng.Intn(2), trial%2 == 1, false, false)
		add("attrs", streamCase{env: env, pts: pts, attrs: true})
		add("attrs/nolandmarks", streamCase{env: env, pts: pts, attrs: true, opts: Options{DisableLandmarks: true}})
	}
	islands, twins := islandsEnv(t), twinsEnv(t)
	for set := 0; set < 2; set++ {
		add("islands", streamCase{env: islands, pts: islandPts(islands, set)})
		add("islands/attrs", streamCase{env: islands, pts: islandPts(islands, set), attrs: true})
		add("twins/q1", streamCase{env: twins, pts: onTwins(twins, set)})
	}
	for set := 0; set < 4; set++ {
		add("twins", streamCase{env: twins, pts: twinPts(twins, set)})
		add("twins/nolandmarks", streamCase{env: twins, pts: twinPts(twins, set), opts: Options{DisableLandmarks: true}})
	}
	for _, nc := range cases {
		t.Run(nc.name, func(t *testing.T) { nc.c.check(t) })
	}
}

// FuzzNNStream is TestNNStream over networks, placements and ablations drawn
// from the fuzzer's bytes.
func FuzzNNStream(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1))  // twins
	f.Add(int64(3), uint8(1), uint8(2))  // query point on an object
	f.Add(int64(4), uint8(3), uint8(4))  // islands
	f.Add(int64(5), uint8(2), uint8(8))  // attributes
	f.Add(int64(6), uint8(4), uint8(16)) // no landmarks
	f.Add(int64(7), uint8(2), uint8(32)) // no heuristic
	f.Add(int64(8), uint8(3), uint8(1|2|8))
	f.Fuzz(func(t *testing.T, seed int64, nq, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		attrs := 0
		if flags&8 != 0 {
			attrs = 1 + rng.Intn(2)
		}
		n := 1 + int(nq)%4
		env, pts := randomStreamEnv(t, rng, 20+rng.Intn(100), 2+rng.Intn(80), n, attrs, flags&1 != 0, flags&2 != 0, flags&4 != 0)
		c := streamCase{env: env, pts: pts, src: rng.Intn(n), attrs: attrs > 0,
			opts: Options{DisableLandmarks: flags&16 != 0, DisableAStarHeuristic: flags&32 != 0}}
		c.check(t)
	})
}

// TestPendingKeyBelowDistance: the pending heap orders objects by a value
// that must never exceed the network distance, or the emit rule would let a
// farther confirmed object out first. The raw bound does exceed it, by ulps,
// on the twins network; its floor does not.
func TestPendingKeyBelowDistance(t *testing.T) {
	env := twinsEnv(t)
	above := 0
	for set := 0; set < 4; set++ {
		pts := twinPts(env, set)
		it, err := NewLBCIterator(context.Background(), env, Query{Points: pts}, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		matrix := bruteforce.DistanceMatrix(env.G, env.Objects, pts)
		for src := range pts {
			s := newNNStream(env, it.q, it.qPts, src, it.searchers, &it.skyVecs)
			for {
				var ok bool
				if s.lookahead, s.lookaheadDist, ok = s.euclid.Next(); !ok {
					break
				}
				s.park()
			}
			for s.pending.Len() > 0 {
				p, key := s.pending.Pop()
				d := matrix[p.id][src]
				if key > d {
					t.Errorf("set %d src %d object %d: pending key %v above distance %v", set, src, p.id, key, d)
				}
				if p.bound > d {
					above++
				}
				if key != sp.BoundFloor(p.bound) {
					t.Errorf("set %d src %d object %d: key %v is not the floor of bound %v", set, src, p.id, key, p.bound)
				}
			}
		}
		it.Close()
	}
	if above == 0 {
		t.Error("no raw bound above its distance: the test no longer tells a floored key from a raw one")
	}
}
