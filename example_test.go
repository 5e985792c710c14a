package roadskyline_test

import (
	"context"
	"fmt"
	"log"

	"roadskyline"
)

// buildDemo returns the package's demo network: a 3x2 street grid whose
// bottom-right street detours.
func buildDemo() *roadskyline.Network {
	nb := roadskyline.NewNetworkBuilder(6, 7)
	for _, p := range []roadskyline.Point{
		{X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1},
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0},
	} {
		nb.AddNode(p)
	}
	type e struct {
		u, v int32
		l    float64
	}
	for _, ed := range []e{
		{0, 1, 1}, {1, 2, 1}, {0, 3, 1}, {1, 4, 1}, {2, 5, 1}, {3, 4, 1}, {4, 5, 2},
	} {
		nb.AddEdge(ed.u, ed.v, ed.l)
	}
	n, err := nb.Build()
	if err != nil {
		log.Fatal(err)
	}
	return n
}

// The basic flow: network, objects, engine, multi-source skyline query.
func ExampleEngine_Skyline() {
	network := buildDemo()
	objects := []roadskyline.Object{
		{Loc: roadskyline.Location{Edge: 0, Offset: 0.2}},
		{Loc: roadskyline.Location{Edge: 1, Offset: 0.8}},
		{Loc: roadskyline.Location{Edge: 6, Offset: 1.0}},
	}
	engine, err := roadskyline.NewEngine(network, objects, roadskyline.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	result, err := engine.Skyline(roadskyline.Query{
		Points: []roadskyline.Location{
			{Edge: 0, Offset: 0}, // node 0
			{Edge: 1, Offset: 1}, // node 2
		},
		Algorithm: roadskyline.LBCAlg,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range result.Points {
		fmt.Printf("object %d: %.1f / %.1f\n", p.Object.ID, p.Distances[0], p.Distances[1])
	}
	// Output:
	// object 0: 0.2 / 1.8
	// object 1: 1.8 / 0.2
}

// Static attributes join the skyline as extra minimized dimensions: a hotel
// far from both query points stays in the answer when it is the cheapest.
func ExampleEngine_Skyline_attributes() {
	network := buildDemo()
	hotels := []roadskyline.Object{
		{Loc: roadskyline.Location{Edge: 0, Offset: 0.2}, Attrs: []float64{120}},
		{Loc: roadskyline.Location{Edge: 1, Offset: 0.8}, Attrs: []float64{150}},
		{Loc: roadskyline.Location{Edge: 6, Offset: 1.0}, Attrs: []float64{60}}, // on the detour
	}
	engine, err := roadskyline.NewEngine(network, hotels, roadskyline.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	points := []roadskyline.Location{{Edge: 0, Offset: 0}, {Edge: 1, Offset: 1}}
	for _, useAttrs := range []bool{false, true} {
		result, err := engine.Skyline(roadskyline.Query{Points: points, UseAttrs: useAttrs, Algorithm: roadskyline.LBCAlg})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("price in the skyline: %v\n", useAttrs)
		for _, p := range result.Points {
			fmt.Printf("  hotel %d: %.1f / %.1f, price %.0f\n", p.Object.ID, p.Distances[0], p.Distances[1], p.Object.Attrs[0])
		}
	}
	// Output:
	// price in the skyline: false
	//   hotel 0: 0.2 / 1.8, price 120
	//   hotel 1: 1.8 / 0.2, price 150
	// price in the skyline: true
	//   hotel 0: 0.2 / 1.8, price 120
	//   hotel 1: 1.8 / 0.2, price 150
	//   hotel 2: 3.0 / 2.0, price 60
}

// An iterator hands out skyline points as LBC confirms them, nearest to the
// query's source point first, so a caller can show the first answers before
// the query finishes.
func ExampleEngine_SkylineIterContext() {
	network := buildDemo()
	objects := []roadskyline.Object{
		{Loc: roadskyline.Location{Edge: 0, Offset: 0.2}},
		{Loc: roadskyline.Location{Edge: 1, Offset: 0.8}},
		{Loc: roadskyline.Location{Edge: 6, Offset: 1.0}},
	}
	engine, err := roadskyline.NewEngine(network, objects, roadskyline.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	it, err := engine.SkylineIterContext(context.Background(), roadskyline.Query{
		Points: []roadskyline.Location{{Edge: 0, Offset: 0}, {Edge: 1, Offset: 1}},
		Source: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer it.Close()
	for {
		p, ok, err := it.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		fmt.Printf("object %d: %.1f / %.1f\n", p.Object.ID, p.Distances[0], p.Distances[1])
	}
	// Output:
	// object 1: 1.8 / 0.2
	// object 0: 0.2 / 1.8
}
