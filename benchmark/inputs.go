package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"roadskyline"
	"roadskyline/internal/bruteforce"
	"roadskyline/internal/gen"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/skyline"
)

// dataset is one road network with its objects, as both the program under
// test and the harness's oracle see it: the paper preset and objects placed
// from datasetSeed, a fixed data set like the paper's DCW files. Everything
// is derived from the roadnet file the harness wrote, so a text round trip
// cannot make the oracle disagree with a skylineserve child that loads the
// same file.
type dataset struct {
	name    string
	netPath string
	net     *roadskyline.Network
	g       *graph.Graph
	objs    []roadskyline.Object
	gobjs   []graph.Object
}

const omega = 0.5 // object density |D|/|E|, the paper's default

// datasetSeed places the objects and baseSeed draws the edges every catalog
// puts its query points on; the run's -seed then decides where on its edge
// each point sits, in which order a pass sends the catalog, and when an
// open loop's requests arrive. A skyline query's cost has a heavy tail over
// where it is asked (one query set in ten costs five times the median), so
// catalogs drawn afresh per seed differ by 10% in mean cost at any size a
// run can afford; moving the points along their edges gives every seed its
// own locations (nothing cached under one seed serves another) while two
// seeds still measure the same neighbourhoods.
const (
	datasetSeed = 1
	baseSeed    = 20070415
)

func loadDataset(dir, name string, attrs int) (*dataset, error) {
	var spec gen.Spec
	switch name {
	case "CA":
		spec = gen.CA
	case "NA":
		spec = gen.NA
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	g0, err := gen.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	path := filepath.Join(dir, name+".roadnet")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := g0.Write(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	ds := &dataset{name: name, netPath: path}
	if ds.net, err = readWith(path, roadskyline.ReadNetwork); err != nil {
		return nil, err
	}
	if ds.g, err = readWith(path, graph.Read); err != nil {
		return nil, err
	}
	// The same call skylineserve makes on the same file with -seed datasetSeed.
	ds.objs = ds.net.GenerateObjects(omega, attrs, datasetSeed)
	ds.gobjs = make([]graph.Object, len(ds.objs))
	for i, o := range ds.objs {
		ds.gobjs[i] = graph.Object{ID: graph.ObjectID(i), Loc: gloc(o.Loc), Attrs: o.Attrs}
	}
	return ds, nil
}

func readWith[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := read(f)
	if err != nil {
		return v, fmt.Errorf("re-reading %s: %w", path, err)
	}
	return v, nil
}

func gloc(l roadskyline.Location) graph.Location {
	return graph.Location{Edge: graph.EdgeID(l.Edge), Offset: l.Offset}
}

func ploc(l graph.Location) roadskyline.Location {
	return roadskyline.Location{Edge: int32(l.Edge), Offset: l.Offset}
}

// wantPoint is one oracle skyline point.
type wantPoint struct {
	id    int32
	dists []float64
}

// query is one catalog entry: what is sent and what must come back.
type query struct {
	pts   []roadskyline.Location
	alg   roadskyline.Algorithm
	attrs bool
	path  string      // "/query?..." for the HTTP workloads
	want  []wantPoint // oracle skyline, ascending object id
}

func (q *query) String() string {
	s := q.alg.String()
	if q.attrs {
		s += "+attrs"
	}
	for _, p := range q.pts {
		s += fmt.Sprintf(" (e%d+%.6g)", p.Edge, p.Offset)
	}
	return s
}

// regionPoints picks count locations on edges whose midpoint lies inside a
// square region covering frac of the network's bounding box, like
// gen.QueryPoints, except that the region's origin is drawn from stratum
// (cx, cy) of an n x n grid of origins rather than from the whole box: one
// region per stratum spreads a catalog evenly over the network. The region
// and the edges come from base (see baseSeed), the offsets along the edges
// from rng. The region grows when it holds too few edges (an obstacle).
func regionPoints(g *graph.Graph, base, rng *rand.Rand, frac float64, cx, cy, n, count int) []graph.Location {
	b := g.Bounds()
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	side := math.Sqrt(frac)
	ux, uy := (float64(cx)+base.Float64())/float64(n), (float64(cy)+base.Float64())/float64(n)
	for {
		rw, rh := w*side, h*side
		ox, oy := b.MinX+ux*(w-rw), b.MinY+uy*(h-rh)
		region := geom.Rect{MinX: ox, MinY: oy, MaxX: ox + rw, MaxY: oy + rh}
		var inside []graph.EdgeID
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(graph.EdgeID(i))
			if region.Contains(g.NodePoint(e.U).Lerp(g.NodePoint(e.V), 0.5)) {
				inside = append(inside, e.ID)
			}
		}
		if len(inside) < 4*count && side < 1 {
			side = math.Min(1, side*1.5)
			continue
		}
		locs := make([]graph.Location, count)
		for i := range locs {
			e := g.Edge(inside[base.Intn(len(inside))])
			locs[i] = graph.Location{Edge: e.ID, Offset: rng.Float64() * e.Length}
		}
		return locs
	}
}

// httpPoint turns a location into the coordinate text a client would send
// and the location skylineserve will snap that text to: the oracle must
// answer for the snapped location, not the one the point was drawn from.
func httpPoint(ds *dataset, loc graph.Location) (text string, snapped roadskyline.Location, err error) {
	p := ds.net.PointOf(ploc(loc))
	xs, ys := strconv.FormatFloat(p.X, 'g', -1, 64), strconv.FormatFloat(p.Y, 'g', -1, 64)
	x, _ := strconv.ParseFloat(xs, 64)
	y, _ := strconv.ParseFloat(ys, 64)
	snapped, err = ds.net.NearestLocation(roadskyline.Point{X: x, Y: y})
	return xs + "," + ys, snapped, err
}

// httpQuery fills q.path and replaces q.pts by their snapped locations.
func httpQuery(ds *dataset, q *query) error {
	v := url.Values{}
	for i, p := range q.pts {
		text, snapped, err := httpPoint(ds, gloc(p))
		if err != nil {
			return err
		}
		v.Add("q", text)
		q.pts[i] = snapped
	}
	v.Set("alg", q.alg.String())
	if q.attrs {
		v.Set("attrs", "1")
	}
	q.path = "/query?" + v.Encode()
	return nil
}

// fillOracle computes every query's skyline the way
// bruteforce.NetworkSkyline does — one exhaustive Dijkstra per query point,
// then a dominance scan over every object's vector — sharing the Dijkstra
// of a location that several queries use (TestOracleMatchesBruteforce pins
// the equivalence). Both stages fan out over the machine's two cores; this
// happens before any clock starts.
func fillOracle(ds *dataset, cat []query) {
	type key struct {
		edge int32
		off  float64
	}
	cols := map[key][]float64{}
	var keys []key
	for i := range cat {
		for _, p := range cat[i].pts {
			k := key{p.Edge, p.Offset}
			if _, ok := cols[k]; !ok {
				cols[k] = nil
				keys = append(keys, k)
			}
		}
	}
	out := make([][]float64, len(keys))
	parallelFor(len(keys), func(i int) {
		out[i] = bruteforce.ObjectDistances(ds.g, ds.gobjs, graph.Location{Edge: graph.EdgeID(keys[i].edge), Offset: keys[i].off})
	})
	for i, k := range keys {
		cols[k] = out[i]
	}
	parallelFor(len(cat), func(i int) {
		q := &cat[i]
		nq := len(q.pts)
		dims := nq
		if q.attrs {
			dims += len(ds.gobjs[0].Attrs)
		}
		flat := make([]float64, len(ds.gobjs)*dims)
		vecs := make([][]float64, len(ds.gobjs))
		for o := range vecs {
			v := flat[o*dims : (o+1)*dims : (o+1)*dims]
			for j, p := range q.pts {
				v[j] = cols[key{p.Edge, p.Offset}][o]
			}
			if q.attrs {
				copy(v[nq:], ds.gobjs[o].Attrs)
			}
			vecs[o] = v
		}
		q.want = q.want[:0]
		for _, o := range skyline.Skyline(vecs) {
			q.want = append(q.want, wantPoint{id: int32(o), dists: append([]float64(nil), vecs[o][:nq]...)})
		}
	})
}

// parallelFor runs fn(0..n-1) on two goroutines and waits for both.
func parallelFor(n int, fn func(i int)) {
	d := newDispenser(n)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := d.take(); ok; i, ok = d.take() {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
