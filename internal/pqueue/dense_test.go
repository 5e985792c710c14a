package pqueue

import (
	"math/rand"
	"testing"
)

// TestDenseMatchesIndexed drives Dense and Indexed through an identical
// random op sequence and requires bit-identical behaviour, including the
// (key, id) pop tie-break the shortest-path searchers rely on for
// deterministic expansion order.
func TestDenseMatchesIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense()
	d.Grow(64)
	ix := NewIndexed[int32](0)
	for step := 0; step < 30000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // push / decrease
			id := int32(rng.Intn(64))
			key := float64(rng.Intn(50)) // coarse keys force ties
			d.Push(id, key)
			ix.Push(id, key)
		case op < 6: // update
			id := int32(rng.Intn(64))
			key := float64(rng.Intn(50))
			d.Update(id, key)
			ix.Update(id, key)
		case op < 7: // point queries
			id := int32(rng.Intn(64))
			if d.Contains(id) != ix.Contains(id) {
				t.Fatalf("step %d: Contains(%d) disagrees", step, id)
			}
			dk, dok := d.Key(id)
			ik, iok := ix.Key(id)
			if dk != ik || dok != iok {
				t.Fatalf("step %d: Key(%d) = (%v,%v) vs (%v,%v)", step, id, dk, dok, ik, iok)
			}
		case op < 8 && d.Len() > 0: // reset both
			if rng.Intn(20) == 0 {
				d.Reset()
				ix.Reset()
			}
		default: // pop
			if d.Len() == 0 {
				if ix.Len() != 0 {
					t.Fatalf("step %d: dense empty, indexed has %d", step, ix.Len())
				}
				continue
			}
			did, dkey := d.Pop()
			iid, ikey := ix.Pop()
			if did != iid || dkey != ikey {
				t.Fatalf("step %d: pop (%d,%v) vs (%d,%v)", step, did, dkey, iid, ikey)
			}
		}
		if d.Len() != ix.Len() {
			t.Fatalf("step %d: len %d vs %d", step, d.Len(), ix.Len())
		}
		if d.Len() > 0 && d.MinKey() != ix.MinKey() {
			t.Fatalf("step %d: MinKey %v vs %v", step, d.MinKey(), ix.MinKey())
		}
	}
}

// TestDenseReset checks O(1) reset semantics: after Reset no stale entry is
// visible, re-pushed ids behave as fresh, and popped-then-reset ids do not
// resurrect.
func TestDenseReset(t *testing.T) {
	d := NewDense()
	d.Grow(8)
	d.Push(3, 1.0)
	d.Push(5, 2.0)
	d.Pop()
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("Len after Reset = %d", d.Len())
	}
	for id := int32(0); id < 8; id++ {
		if d.Contains(id) {
			t.Fatalf("id %d visible after Reset", id)
		}
	}
	d.Push(5, 9.0) // previously queued with key 2: must re-insert at 9
	if k, ok := d.Key(5); !ok || k != 9.0 {
		t.Fatalf("Key(5) = (%v,%v) after Reset+Push", k, ok)
	}
	if id, k := d.Pop(); id != 5 || k != 9.0 {
		t.Fatalf("Pop = (%d,%v)", id, k)
	}
}

// TestDenseEpochWrap forces the uint32 epoch counter around zero and checks
// that ancient stamps cannot alias the fresh epoch.
func TestDenseEpochWrap(t *testing.T) {
	d := NewDense()
	d.Grow(4)
	d.Push(2, 7.0)
	d.epoch = ^uint32(0) // stamp[2] holds epoch 1, far in the "past"
	d.Reset()            // wraps to 0, must clear stamps and land on 1
	if d.epoch != 1 {
		t.Fatalf("epoch after wrap = %d", d.epoch)
	}
	if d.Contains(2) {
		t.Fatal("stale stamp aliased post-wrap epoch")
	}
	d.Push(2, 3.0)
	if k, ok := d.Key(2); !ok || k != 3.0 {
		t.Fatalf("Key(2) = (%v,%v) post-wrap", k, ok)
	}
}

// TestDenseGrowPreserves checks growing the id space mid-run keeps queued
// entries intact.
func TestDenseGrowPreserves(t *testing.T) {
	d := NewDense()
	d.Grow(2)
	d.Push(1, 4.0)
	d.Grow(100)
	d.Push(99, 1.0)
	if id, k := d.Pop(); id != 99 || k != 1.0 {
		t.Fatalf("Pop = (%d,%v)", id, k)
	}
	if id, k := d.Pop(); id != 1 || k != 4.0 {
		t.Fatalf("Pop = (%d,%v)", id, k)
	}
}

// TestDenseFillHeapifyMatchesPush loads the same entries by Fill+Heapify
// into one heap and by one Push each into another, then drives both through
// the session pattern — raise the top's key in place (Min, Update), push new
// and decreased keys, pop — and requires identical Min and Pop sequences.
// Coarse keys force ties, so the (key, id) tie-break is what is compared.
func TestDenseFillHeapifyMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const ids = 96
	filled, pushed := NewDense(), NewDense()
	filled.Grow(ids)
	pushed.Grow(ids)
	for round := 0; round < 400; round++ {
		filled.Reset()
		pushed.Reset()
		n := rng.Intn(ids + 1) // 0 and 1 entries included
		for _, id := range rng.Perm(ids)[:n] {
			key := float64(rng.Intn(12))
			filled.Fill(int32(id), key)
			pushed.Push(int32(id), key)
		}
		if filled.Len() != n {
			t.Fatalf("round %d: Len after Fill = %d, want %d", round, filled.Len(), n)
		}
		if round%5 == 0 {
			continue // filled but never ordered: Reset must leave no trace
		}
		filled.Heapify()
		for step := 0; filled.Len() > 0 || pushed.Len() > 0; step++ {
			if filled.Len() != pushed.Len() {
				t.Fatalf("round %d step %d: len %d vs %d", round, step, filled.Len(), pushed.Len())
			}
			fid, fkey := filled.Min()
			pid, pkey := pushed.Min()
			if fid != pid || fkey != pkey {
				t.Fatalf("round %d step %d: min (%d,%v) vs (%d,%v)", round, step, fid, fkey, pid, pkey)
			}
			switch op := rng.Intn(4); op {
			case 0: // raise the top in place, possibly onto a tie
				key := fkey + float64(rng.Intn(4))
				filled.Update(fid, key)
				pushed.Update(pid, key)
			case 1: // relaxation: a new id or a decreased key
				id, key := int32(rng.Intn(ids)), float64(rng.Intn(12))
				filled.Push(id, key)
				pushed.Push(id, key)
			default:
				fid, fkey = filled.Pop()
				pid, pkey = pushed.Pop()
				if fid != pid || fkey != pkey {
					t.Fatalf("round %d step %d: pop (%d,%v) vs (%d,%v)", round, step, fid, fkey, pid, pkey)
				}
			}
			for id := int32(0); id < ids; id++ {
				if filled.Contains(id) != pushed.Contains(id) {
					t.Fatalf("round %d step %d: Contains(%d) disagrees", round, step, id)
				}
			}
		}
	}
}
