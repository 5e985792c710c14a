package core

import (
	"context"
	"fmt"
	"math"
	"roadskyline/internal/bruteforce"
	"sync"
	"testing"

	"roadskyline/internal/gen"
	"roadskyline/internal/graph"
)

// pinNet is a generated network shared by the pin cells and benchmarks.
type pinNet struct {
	once sync.Once
	spec gen.Spec
	g    *graph.Graph
	envs map[int]*Env // by attribute count
}

var (
	pinCA = &pinNet{spec: gen.CA}
	// NA at the trajectory gate's large-cell scale (0.6, ~52k nodes).
	pinNA = &pinNet{spec: func() gen.Spec {
		s := gen.NA
		s.Nodes, s.Edges = int(float64(s.Nodes)*0.6), int(float64(s.Edges)*0.6)
		return s
	}()}
)

func (p *pinNet) env(t testing.TB, attrs int) *Env {
	t.Helper()
	p.once.Do(func() {
		spec := p.spec
		spec.Seed = 1
		g, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("generate %s: %v", spec.Name, err)
		}
		p.g, p.envs = g, map[int]*Env{}
	})
	if p.g == nil {
		t.Fatalf("network %s failed to generate", p.spec.Name)
	}
	if env, ok := p.envs[attrs]; ok {
		return env
	}
	env, err := NewEnv(p.g, gen.Objects(p.g, 0.5, attrs, 1), EnvConfig{})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	p.envs[attrs] = env
	return env
}

// hashVec adds an answer's object id and the Float64bits of each vector
// entry to h.
func hashVec(h interface{ Write([]byte) (int, error) }, id graph.ObjectID, vec []float64) {
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(id))
	for _, d := range vec {
		put(math.Float64bits(d))
	}
}

// sameSkyline reports how two results differ as sets: the objects, or a
// vector entry by more than 1e-9.
func sameSkyline(got, want *Result) error {
	if g, w := skylineIDs(got), skylineIDs(want); !sameIDs(g, w) {
		return fmt.Errorf("%d skyline points %v, want %d %v", len(g), g, len(w), w)
	}
	vecs := make(map[graph.ObjectID][]float64, len(want.Skyline))
	for _, p := range want.Skyline {
		vecs[p.Object.ID] = p.Vec
	}
	for _, p := range got.Skyline {
		for i, d := range p.Vec {
			if w := vecs[p.Object.ID][i]; d != w && !(math.Abs(d-w) <= 1e-9) {
				return fmt.Errorf("object %d entry %d is %v, want %v", p.Object.ID, i, d, w)
			}
		}
	}
	return nil
}

// TestTwinsMatchOracle: on the network where every location holds two
// objects, LBC from every source and alternating, and aggregate NN for both
// aggregates, return what the brute-force oracle and CE return. A bound taken
// raw instead of at its floor lets a skyline point "strictly" dominate its
// bit-identical twin here, and loses it.
func TestTwinsMatchOracle(t *testing.T) {
	ctx := context.Background()
	env := twinsEnv(t)
	for set := 0; set < 4; set++ {
		pts := twinPts(env, set)
		q := Query{Points: pts}
		want, _ := bruteforce.NetworkSkyline(env.G, env.Objects, pts, false)
		ce, err := Run(ctx, env, q, AlgCE, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := skylineIDs(ce); !sameIDs(got, want) {
			t.Errorf("set %d: CE reports %d points, oracle %d", set, len(got), len(want))
		}
		arms := map[string]Options{
			"alternate":   {LBCAlternate: true},
			"nolandmarks": {DisableLandmarks: true},
			"noplb":       {DisablePLB: true},
		}
		for src := range pts {
			arms[fmt.Sprint("source", src)] = Options{LBCSource: src}
		}
		for name, opts := range arms {
			opts.ColdCache = true
			res, err := Run(ctx, env, q, AlgLBC, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := skylineIDs(res); !sameIDs(got, want) {
				t.Errorf("set %d LBC/%s: %d of %d skyline points: %v, oracle %v", set, name, len(got), len(want), got, want)
			} else if err := sameSkyline(res, ce); err != nil {
				t.Errorf("set %d LBC/%s against CE: %v", set, name, err)
			}
		}
		for _, agg := range []Agg{AggSum, AggMax} {
			for _, k := range []int{1, 2, 5, 16} {
				res, err := AggregateNN(ctx, env, pts, k, agg, Options{ColdCache: true})
				if err != nil {
					t.Fatal(err)
				}
				want := oracleAggNN(env, pts, k, agg)
				if len(res.Neighbors) != len(want) {
					t.Fatalf("set %d ANN %v k=%d: %d neighbours, oracle %d", set, agg, k, len(res.Neighbors), len(want))
				}
				for i, nb := range res.Neighbors {
					if nb.Agg != want[i] {
						t.Errorf("set %d ANN %v k=%d: rank %d is object %d at %v, oracle %v", set, agg, k, i, nb.Object.ID, nb.Agg, want[i])
					}
				}
			}
		}
	}
}
