package live

import (
	"cmp"
	"slices"
	"strings"

	"schism/internal/partition"
	"schism/internal/workload"
)

// Move relocates one tuple: create replicas on Adds (copying the row from
// CopyFrom), drop replicas from Dels, and flip the routing entry to the
// full new replica set To once the data movement commits.
//
// The sets are shared, not owned: To is the repartitioning's replica set,
// which tuples with equal sets share, and Adds and Dels are cut from
// arrays shared by the whole plan, each capped at its length. Read them,
// or append to them (an append reallocates); never write them in place.
type Move struct {
	Table    string
	Key      int64
	CopyFrom int
	Adds     []int
	Dels     []int
	To       []int
}

// Plan is an ordered list of tuple moves. Order is the dense-id order of
// the repartitioning's tuple table, so equal inputs plan identically.
type Plan struct {
	Moves []Move
	// Copies / Drops total the per-replica work across moves.
	Copies int
	Drops  int
}

// BuildPlan diffs the deployed placement against a new assignment:
// tuples[i] gets replica set newSets[i]. Tuples whose deployed set is
// unknown (locate returns nil — keys born after deployment) are left
// alone: their rows stay at the key hash the routing layer places them
// on.
func BuildPlan(tuples []workload.TupleID, locate LocateFunc, newSets [][]int) Plan {
	oldSets := make([][]int, len(tuples))
	for i, id := range tuples {
		oldSets[i] = locate(id)
	}
	return BuildPlanSets(tuples, oldSets, newSets)
}

// BuildPlanSets is BuildPlan over pre-resolved deployed sets: oldSets[i]
// is tuples[i]'s deployed replica set, nil when unknown. A Repartition
// already resolved every windowed tuple once for its movement diff and
// exposes the result as Deployed; planning from it skips a second
// per-tuple map pass over the whole window.
//
// A first pass counts the moves and their replica deltas, so the moves
// and the two arrays every move's Adds and Dels are cut from (capped) are
// each allocated once, at their final size.
func BuildPlanSets(tuples []workload.TupleID, oldSets, newSets [][]int) Plan {
	moves, adds, dels := 0, 0, 0
	var a, d []int // one move's delta; at most k entries each
	for i := range tuples {
		if oldSets[i] == nil || newSets[i] == nil {
			continue
		}
		a, d = partition.AppendSetDelta(a[:0], d[:0], oldSets[i], newSets[i])
		if len(a)+len(d) > 0 {
			moves, adds, dels = moves+1, adds+len(a), dels+len(d)
		}
	}
	if moves == 0 {
		return Plan{}
	}
	p := Plan{Moves: make([]Move, 0, moves)}
	addBuf, delBuf := make([]int, 0, adds), make([]int, 0, dels)
	for i, id := range tuples {
		to, from := newSets[i], oldSets[i]
		if to == nil || from == nil {
			continue
		}
		na, nd := len(addBuf), len(delBuf)
		addBuf, delBuf = partition.AppendSetDelta(addBuf, delBuf, from, to)
		if len(addBuf) == na && len(delBuf) == nd {
			continue
		}
		m := Move{Table: id.Table, Key: id.Key, CopyFrom: from[0], To: to,
			Adds: capped(addBuf, na), Dels: capped(delBuf, nd)}
		// Prefer copying from a replica that survives the move.
		for _, f := range from {
			if slices.Contains(to, f) {
				m.CopyFrom = f
				break
			}
		}
		p.Moves = append(p.Moves, m)
	}
	p.Copies, p.Drops = len(addBuf), len(delBuf)
	return p
}

// capped returns buf[from:] capped at its length, so an append to it
// reallocates instead of running into the next cut; nil when empty.
func capped(buf []int, from int) []int {
	if len(buf) == from {
		return nil
	}
	return buf[from:len(buf):len(buf)]
}

// Batches splits the plan into batches of at most size moves, each applied
// as one migration transaction. The batches cut a copy of the moves stably
// sorted by (Table, CopyFrom, Adds, Dels), so each batch is as homogeneous
// as the plan allows: the executor runs one statement per (table, source),
// (table, add set) and (table, drop set) group of a batch, and the sort
// keeps those groups few and large. p.Moves keeps its dense-id order.
func (p Plan) Batches(size int) [][]Move {
	if size <= 0 {
		size = 32
	}
	moves := slices.Clone(p.Moves)
	slices.SortStableFunc(moves, compareMoves)
	var out [][]Move
	for lo := 0; lo < len(moves); lo += size {
		out = append(out, moves[lo:min(lo+size, len(moves))])
	}
	return out
}

// compareMoves orders moves by (Table, CopyFrom, Adds, Dels); replica sets
// are sorted, so equal sets compare equal.
func compareMoves(a, b Move) int {
	if c := strings.Compare(a.Table, b.Table); c != 0 {
		return c
	}
	if c := cmp.Compare(a.CopyFrom, b.CopyFrom); c != 0 {
		return c
	}
	if c := slices.Compare(a.Adds, b.Adds); c != 0 {
		return c
	}
	return slices.Compare(a.Dels, b.Dels)
}
