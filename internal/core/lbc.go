package core

// lbc implements the Lower-Bound Constraint algorithm (paper Section 4.3)
// by draining the progressive LBCIterator.
//
// One query point is the source (all of them, round-robin, with
// Options.LBCAlternate — the multi-source extension the paper sketches at
// the end of Section 4.3). The source's network nearest neighbors are
// retrieved incrementally (IER style: a dominance-pruned Euclidean NN
// stream confirmed by A* network distances). Each network NN p is then
// checked against the known skyline using path distance lower bounds: for
// every other query point the searcher's frontier-free bound toward p, then
// (opened only while p stays undominated) an A* session toward p, maintains
// a monotone lower bound on the network distance, and the session with the
// smallest bound advances one step at a time (boundVec.refine). The moment
// some known skyline point sits at or below p's bound vector, p is
// discarded with its distance computations unfinished — this partial
// evaluation is what makes LBC instance-optimal in network accesses (paper
// Theorem 1).
//
// The paper phrases the dominance test with per-query-point sorted lists
// (a skyline point dominating p precedes it in every list); comparing the
// skyline vectors against p's current lower-bound vector directly is
// equivalent: s precedes p in list i exactly when dN(qi, s) <= lb_i(p).
//
// Completeness does not depend on the source choice: candidates pop from
// each stream in ascending network distance, so any object dominating a
// candidate either popped earlier (it precedes the candidate in the
// stream the candidate came from) or was pruned because a known skyline
// point dominates it — and that skyline point dominates the candidate
// too, by transitivity.
func lbc(f *frame) (*Result, error) {
	it := newLBCIterator(f)
	res := &Result{}
	for {
		p, ok, err := it.Next()
		if err != nil {
			// A failed Next leaves the iterator open; Close finalizes it
			// (leadership tickets abdicated, searchers released). The
			// frozen metrics account the work the failed query performed,
			// for observers like the flight recorder.
			it.Close()
			res.Metrics = it.Metrics()
			return res, err
		}
		if !ok {
			break
		}
		res.Skyline = append(res.Skyline, p)
	}
	dropDominatedDuplicates(res)
	res.Metrics = it.Metrics()
	return res, nil
}
