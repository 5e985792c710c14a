// Command skylinequery answers one multi-source skyline query over a road
// network from the command line.
//
// The network is either read from a roadnet file (-net) or generated from a
// paper preset (-preset). Objects are generated at the given density;
// query points are given as x,y coordinates (snapped to the nearest road)
// or generated inside a random sub-region.
//
// Usage:
//
//	skylinequery -preset CA -omega 0.5 -q 0.2,0.3 -q 0.7,0.7 -alg LBC
//	skylinequery -net na.roadnet -omega 0.2 -numq 4 -alg all -v
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"roadskyline"
)

type pointList []roadskyline.Point

func (p *pointList) String() string { return fmt.Sprint(*p) }

func (p *pointList) Set(s string) error {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return fmt.Errorf("want x,y")
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return err
	}
	*p = append(*p, roadskyline.Point{X: x, Y: y})
	return nil
}

func main() {
	var queryPts pointList
	var (
		netFile = flag.String("net", "", "roadnet file to load")
		preset  = flag.String("preset", "CA", "paper preset when -net is not given: CA, AU or NA")
		omega   = flag.Float64("omega", 0.5, "object density |D|/|E|")
		attrs   = flag.Int("attrs", 0, "number of random non-spatial attributes per object")
		numQ    = flag.Int("numq", 0, "generate this many query points (when no -q given)")
		algName = flag.String("alg", "LBC", "algorithm: CE, EDC, LBC or all")
		seed    = flag.Int64("seed", 1, "random seed for objects and generated query points")
		verbose = flag.Bool("v", false, "print every skyline point")
		svgOut  = flag.String("svg", "", "write an SVG visualization of the last run to this file")
	)
	flag.Var(&queryPts, "q", "query point as x,y (repeatable)")
	flag.Parse()
	if *numQ < 0 {
		fmt.Fprintf(os.Stderr, "skylinequery: -numq must not be negative (got %d)\n", *numQ)
		os.Exit(2)
	}

	net, err := loadNetwork(*netFile, *preset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skylinequery: %v\n", err)
		os.Exit(1)
	}
	objects := net.GenerateObjects(*omega, *attrs, *seed)
	eng, err := roadskyline.NewEngine(net, objects, roadskyline.EngineConfig{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "skylinequery: %v\n", err)
		os.Exit(1)
	}

	var locs []roadskyline.Location
	for _, p := range queryPts {
		loc, err := net.NearestLocation(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylinequery: %v\n", err)
			os.Exit(1)
		}
		locs = append(locs, loc)
	}
	if len(locs) == 0 {
		k := *numQ
		if k == 0 {
			k = 3
		}
		locs = net.GenerateQueryPoints(k, 0.1, *seed)
	}

	var algorithms []roadskyline.Algorithm
	switch strings.ToUpper(*algName) {
	case "CE":
		algorithms = []roadskyline.Algorithm{roadskyline.CEAlg}
	case "EDC":
		algorithms = []roadskyline.Algorithm{roadskyline.EDCAlg}
	case "LBC":
		algorithms = []roadskyline.Algorithm{roadskyline.LBCAlg}
	case "ALL":
		algorithms = []roadskyline.Algorithm{roadskyline.CEAlg, roadskyline.EDCAlg, roadskyline.LBCAlg}
	default:
		fmt.Fprintf(os.Stderr, "skylinequery: unknown algorithm %q\n", *algName)
		os.Exit(2)
	}

	fmt.Printf("network: %d nodes, %d edges; objects: %d; query points: %d\n",
		net.NumNodes(), net.NumEdges(), len(objects), len(locs))
	var lastResult *roadskyline.Result
	for _, alg := range algorithms {
		res, err := eng.Skyline(roadskyline.Query{
			Points:    locs,
			UseAttrs:  *attrs > 0,
			Algorithm: alg,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylinequery: %v\n", err)
			os.Exit(1)
		}
		lastResult = res
		s := res.Stats
		fmt.Printf("%-4s: %3d skyline points | candidates %5d | network pages %6d | nodes %7d | total %8v | first %8v\n",
			alg, len(res.Points), s.Candidates, s.NetworkPages, s.NodesExpanded, s.Total.Round(10e3), s.Initial.Round(10e3))
		if *verbose {
			for _, p := range res.Points {
				pt := net.PointOf(p.Object.Loc)
				fmt.Printf("  object %4d at (%.3f, %.3f)  dists %v", p.Object.ID, pt.X, pt.Y, fmtVec(p.Distances))
				if len(p.Object.Attrs) > 0 {
					fmt.Printf("  attrs %v", fmtVec(p.Object.Attrs))
				}
				fmt.Println()
			}
		}
	}
	if *svgOut != "" && lastResult != nil {
		if err := writePlot(*svgOut, net, objects, locs, lastResult); err != nil {
			fmt.Fprintf(os.Stderr, "skylinequery: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
}

// writePlot writes the SVG visualization to path, reporting a failed
// close as well as a failed write.
func writePlot(path string, net *roadskyline.Network, objects []roadskyline.Object, locs []roadskyline.Location, res *roadskyline.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeQueryPlot(f, net, objects, locs, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadNetwork(path, preset string) (*roadskyline.Network, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return roadskyline.ReadNetwork(f)
	}
	switch preset {
	case "CA":
		return roadskyline.Generate(roadskyline.CA)
	case "AU":
		return roadskyline.Generate(roadskyline.AU)
	case "NA":
		return roadskyline.Generate(roadskyline.NA)
	}
	return nil, fmt.Errorf("unknown preset %q (want CA, AU or NA)", preset)
}

func fmtVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
