// Package experiments regenerates every figure of the paper's evaluation
// (Section 6). Each figure function sweeps the paper's parameter, runs CE,
// EDC and LBC over several random query sets, and returns a Table whose
// rows mirror the published plot: candidate ratio |C|/|D| (Figure 4),
// network disk pages accessed (Figures 5a, 6a, 6d), total response time
// (5b, 6b, 6e) and initial response time (5c, 6c, 6f). Ablation tables
// cover the design choices the paper calls out: the path distance lower
// bound, A* directional expansion, Hilbert disk clustering and the buffer
// size.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"roadskyline/internal/core"
	"roadskyline/internal/diskgraph"
	"roadskyline/internal/gen"
	"roadskyline/internal/graph"
	"roadskyline/internal/storage"
)

// Config controls experiment scale and sweeps. Default reproduces the
// paper's settings; Quick shrinks everything for CI-speed benchmark runs
// (shapes are preserved, absolute numbers shrink with the networks).
type Config struct {
	// Scale multiplies the node/edge counts of the paper networks.
	Scale float64
	// Trials is the number of random query sets averaged per setting
	// (paper: "the average of ten tests").
	Trials int
	// Seed drives network generation and query placement.
	Seed int64
	// QValues is the |Q| sweep of Figures 4(a) and 6(a)-(c).
	QValues []int
	// Omegas is the object-density sweep of Figures 4(b) and 6(d)-(f).
	Omegas []float64
	// DefaultQ and DefaultOmega are the fixed parameters of the other
	// figures (paper: |Q|=4, omega=50%).
	DefaultQ     int
	DefaultOmega float64
	// BufferBytes is the LRU buffer size (paper: 1 MB).
	BufferBytes int
	// Landmarks is the number of ALT landmark nodes built into each
	// environment (0 = core.DefaultLandmarks, negative disables). The
	// landmark ablation compares per-query instead, via
	// core.Options.DisableLandmarks, so one environment serves both arms.
	Landmarks int
	// DiskLatency is the simulated cost per network page fault charged
	// into the response-time figures (0 = core.DefaultDiskLatency). The
	// reduced Quick configuration raises it to a rotating-disk value:
	// shrinking the networks shrinks page counts much faster than CPU
	// work, and without a disk-like latency the response-time figures
	// would measure mostly CPU jitter instead of the paper's I/O-bound
	// regime.
	DiskLatency time.Duration
}

// Default returns the paper's experimental configuration.
func Default() Config {
	return Config{
		Scale:        1.0,
		Trials:       10,
		Seed:         2007,
		QValues:      []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		Omegas:       []float64{0.05, 0.2, 0.5, 1.0, 2.0},
		DefaultQ:     4,
		DefaultOmega: 0.5,
		BufferBytes:  storage.DefaultBufferBytes,
	}
}

// Quick returns a reduced configuration for fast benchmark runs.
func Quick() Config {
	c := Default()
	c.Scale = 0.12
	c.Trials = 2
	c.QValues = []int{2, 4, 8, 15}
	c.Omegas = []float64{0.05, 0.5, 2.0}
	c.DiskLatency = 2 * time.Millisecond
	return c
}

// Algs is the fixed column order of every table.
var Algs = []string{"CE", "EDC", "LBC"}

var coreAlgs = []core.Algorithm{core.AlgCE, core.AlgEDC, core.AlgLBC}

// Table is one reproduced figure: a metric against an x-axis, one column
// per algorithm.
type Table struct {
	Figure string // e.g. "Fig 4(a)"
	Title  string
	XLabel string
	Metric string
	Algs   []string
	Rows   []Row
}

// Row is one x value with the metric for each algorithm.
type Row struct {
	X      string
	Values []float64
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Figure, t.Title)
	fmt.Fprintf(&b, "metric: %s\n", t.Metric)
	fmt.Fprintf(&b, "%-12s", t.XLabel)
	for _, a := range t.Algs {
		fmt.Fprintf(&b, "%14s", a)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s", r.X)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%14.4f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.XLabel)
	for _, a := range t.Algs {
		fmt.Fprintf(&b, ",%s", a)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s", r.X)
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Measurement is a per-query average over trials. TotalMs and InitialMs
// are response times under the simulated disk (measured CPU time plus
// modeled I/O time, see core.EnvConfig.DiskLatency); CPUMs is the measured
// wall time alone.
type Measurement struct {
	CandRatio float64 // |C| / |D|
	Pages     float64 // network disk pages faulted
	TotalMs   float64
	InitialMs float64
	CPUMs     float64
	Nodes     float64 // network nodes expanded
	DistComps float64
}

// Lab caches generated networks and built environments across figures so a
// full reproduction run generates each network once.
type Lab struct {
	cfg      Config
	graphs   map[string]*graph.Graph
	envs     map[string]*core.Env
	measured map[string]Measurement
}

// NewLab returns an empty lab for cfg.
func NewLab(cfg Config) *Lab {
	return &Lab{
		cfg:      cfg,
		graphs:   map[string]*graph.Graph{},
		envs:     map[string]*core.Env{},
		measured: map[string]Measurement{},
	}
}

// scaled applies cfg.Scale to a paper network spec.
func (l *Lab) scaled(spec gen.Spec) gen.Spec {
	if l.cfg.Scale == 1 || l.cfg.Scale <= 0 {
		return spec
	}
	s := spec
	s.Nodes = int(math.Round(float64(spec.Nodes) * l.cfg.Scale))
	if s.Nodes < 16 {
		s.Nodes = 16
	}
	s.Edges = int(math.Round(float64(spec.Edges) * l.cfg.Scale))
	if s.Edges < s.Nodes-1 {
		s.Edges = s.Nodes - 1
	}
	return s
}

// Network returns the (possibly scaled) generated network for a paper spec.
func (l *Lab) Network(spec gen.Spec) (*graph.Graph, error) {
	if g, ok := l.graphs[spec.Name]; ok {
		return g, nil
	}
	g, err := gen.Generate(l.scaled(spec))
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s: %w", spec.Name, err)
	}
	l.graphs[spec.Name] = g
	return g, nil
}

// Env returns a query environment for (network, omega) with the given
// buffer size and disk order, cached.
func (l *Lab) Env(spec gen.Spec, omega float64, bufferBytes int, order diskgraph.Order) (*core.Env, error) {
	key := fmt.Sprintf("%s/%.3f/%d/%d", spec.Name, omega, bufferBytes, order)
	if e, ok := l.envs[key]; ok {
		return e, nil
	}
	g, err := l.Network(spec)
	if err != nil {
		return nil, err
	}
	objs := gen.Objects(g, omega, 0, l.cfg.Seed+int64(omega*1000))
	env, err := core.NewEnv(g, objs, core.EnvConfig{
		BufferBytes: bufferBytes,
		Order:       order,
		Landmarks:   l.cfg.Landmarks,
		DiskLatency: l.cfg.DiskLatency,
	})
	if err != nil {
		return nil, err
	}
	l.envs[key] = env
	return env, nil
}

// Measure runs one algorithm over cfg.Trials random query sets and returns
// the averaged metrics.
func (l *Lab) Measure(spec gen.Spec, omega float64, numQ int, alg core.Algorithm, opts core.Options) (Measurement, error) {
	return l.measureWith(spec, omega, numQ, alg, opts, l.cfg.BufferBytes, diskgraph.OrderHilbert)
}

func (l *Lab) measureWith(spec gen.Spec, omega float64, numQ int, alg core.Algorithm, opts core.Options, bufferBytes int, order diskgraph.Order) (Measurement, error) {
	// Figures share settings (4a/6Q, 4b/6W, 4c/5), so measurements are
	// memoized per full parameter set.
	key := fmt.Sprintf("%s|%.3f|%d|%d|%+v|%d|%d", spec.Name, omega, numQ, alg, opts, bufferBytes, order)
	if m, ok := l.measured[key]; ok {
		return m, nil
	}
	env, err := l.Env(spec, omega, bufferBytes, order)
	if err != nil {
		return Measurement{}, err
	}
	g := l.graphs[spec.Name]
	var acc Measurement
	opts.ColdCache = true
	for trial := 0; trial < l.cfg.Trials; trial++ {
		qseed := l.cfg.Seed + int64(trial)*7919 + int64(numQ)*104729
		q := core.Query{Points: gen.QueryPoints(g, numQ, 0.1, qseed)}
		res, err := core.Run(context.Background(), env, q, alg, opts)
		if err != nil {
			return Measurement{}, fmt.Errorf("experiments: %s omega=%.2f |Q|=%d %v: %w", spec.Name, omega, numQ, alg, err)
		}
		m := res.Metrics
		if len(env.Objects) > 0 {
			acc.CandRatio += float64(m.Candidates) / float64(len(env.Objects))
		}
		acc.Pages += float64(m.NetworkPages)
		acc.TotalMs += float64(m.ResponseTime().Microseconds()) / 1000
		acc.InitialMs += float64(m.InitialResponseTime().Microseconds()) / 1000
		acc.CPUMs += float64(m.Total.Microseconds()) / 1000
		acc.Nodes += float64(m.NodesExpanded)
		acc.DistComps += float64(m.DistanceComputations)
	}
	n := float64(l.cfg.Trials)
	acc.CandRatio /= n
	acc.Pages /= n
	acc.TotalMs /= n
	acc.InitialMs /= n
	acc.CPUMs /= n
	acc.Nodes /= n
	acc.DistComps /= n
	l.measured[key] = acc
	return acc, nil
}

// measureAll runs all three algorithms for one setting.
func (l *Lab) measureAll(spec gen.Spec, omega float64, numQ int) ([3]Measurement, error) {
	var out [3]Measurement
	for i, alg := range coreAlgs {
		m, err := l.Measure(spec, omega, numQ, alg, core.Options{})
		if err != nil {
			return out, err
		}
		out[i] = m
	}
	return out, nil
}

func pick(ms [3]Measurement, f func(Measurement) float64) []float64 {
	return []float64{f(ms[0]), f(ms[1]), f(ms[2])}
}
