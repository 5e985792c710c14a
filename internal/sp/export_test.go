package sp

// Test-only exports for the external test package sp_test, which exists
// because tests that install the landmark table cannot live in package sp
// (internal/landmark imports it).

import "fmt"

var (
	// NewMapAStar is the map-based oracle searcher of oracle_test.go.
	NewMapAStar = newMapAStar
	// FuzzGraph draws the differential fuzz's random/degenerate topologies.
	FuzzGraph = fuzzGraph
)

// Dist returns the oracle session's best complete path length.
func (s *mapSession) Dist() float64 { return s.tent }

// CheckFrontier verifies the compact frontier list against the state
// arrays: the list holds exactly the touched nodes in stateFrontier, each
// at the slot fpos records for it (which also rules out duplicates).
func (sc *Scratch) CheckFrontier() error {
	want := 0
	for _, v := range sc.touched {
		if sc.state[v] == stateFrontier {
			want++
		}
	}
	if len(sc.front) != want {
		return fmt.Errorf("frontier list holds %d nodes, %d touched nodes are in stateFrontier", len(sc.front), want)
	}
	for i, v := range sc.front {
		if sc.nodeState(v) != stateFrontier {
			return fmt.Errorf("frontier list slot %d holds node %d in state %d", i, v, sc.nodeState(v))
		}
		if sc.fpos[v] != int32(i) {
			return fmt.Errorf("node %d sits in frontier slot %d but fpos says %d", v, i, sc.fpos[v])
		}
	}
	return nil
}
