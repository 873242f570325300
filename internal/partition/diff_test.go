package partition

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestAssignmentDiff(t *testing.T) {
	oldSets := [][]int{
		{0},    // unchanged
		{0},    // moves to 1
		{0, 1}, // loses replica 1
		{2},    // gains replica 0
		nil,    // unknown old: skipped
		{1},    // unknown new: skipped
	}
	newSets := [][]int{
		{0},
		{1},
		{0},
		{0, 2},
		{1},
		nil,
	}
	d := AssignmentDiff(oldSets, newSets, 3)
	if d.Total != 4 {
		t.Fatalf("Total = %d, want 4", d.Total)
	}
	if d.Moved != 3 {
		t.Fatalf("Moved = %d, want 3", d.Moved)
	}
	if d.Copies != 2 || d.Drops != 2 {
		t.Fatalf("Copies/Drops = %d/%d, want 2/2", d.Copies, d.Drops)
	}
	if want := []int{1, 1, 0}; !reflect.DeepEqual(d.PartGain, want) {
		t.Fatalf("PartGain = %v, want %v", d.PartGain, want)
	}
	if want := []int{1, 1, 0}; !reflect.DeepEqual(d.PartLoss, want) {
		t.Fatalf("PartLoss = %v, want %v", d.PartLoss, want)
	}
	if d.MovedFrac() != 0.75 {
		t.Fatalf("MovedFrac = %v, want 0.75", d.MovedFrac())
	}
}

func TestRelabelMapRecoversRotation(t *testing.T) {
	// New labels are a pure rotation of the old: perm must undo it exactly.
	const k = 4
	rot := func(p int) int { return (p + 1) % k }
	var oldSets, newSets [][]int
	for d := 0; d < 400; d++ {
		p := d % k
		oldSets = append(oldSets, []int{p})
		newSets = append(newSets, []int{rot(p)})
	}
	perm := RelabelMap(oldSets, newSets, k)
	for q := 0; q < k; q++ {
		// New label q corresponds to old label with rot(old) == q.
		want := (q - 1 + k) % k
		if perm[q] != want {
			t.Fatalf("perm[%d] = %d, want %d (perm=%v)", q, perm[q], want, perm)
		}
	}
	// Applying the permutation must make the diff empty.
	relabeled := make([][]int, len(newSets))
	for i, s := range newSets {
		relabeled[i] = []int{perm[s[0]]}
	}
	if d := AssignmentDiff(oldSets, relabeled, k); d.Moved != 0 {
		t.Fatalf("after relabel Moved = %d, want 0", d.Moved)
	}
}

func TestRelabelMapReducesMoves(t *testing.T) {
	// 3 parts, new assignment is old with labels swapped plus 10% churn.
	const k = 3
	swap := []int{1, 2, 0}
	var oldSets, newSets [][]int
	for d := 0; d < 300; d++ {
		p := d % k
		oldSets = append(oldSets, []int{p})
		np := swap[p]
		if d%10 == 0 {
			np = (np + 1) % k // genuine churn
		}
		newSets = append(newSets, []int{np})
	}
	naive := AssignmentDiff(oldSets, newSets, k)
	perm := RelabelMap(oldSets, newSets, k)
	relabeled := make([][]int, len(newSets))
	for i, s := range newSets {
		relabeled[i] = []int{perm[s[0]]}
	}
	after := AssignmentDiff(oldSets, relabeled, k)
	if after.Moved >= naive.Moved {
		t.Fatalf("relabel did not reduce moves: %d -> %d", naive.Moved, after.Moved)
	}
	if after.Moved != 30 { // only the churned 10% should move
		t.Fatalf("Moved = %d, want 30", after.Moved)
	}
}

func TestRelabelMapIdentityOnEqual(t *testing.T) {
	sets := [][]int{{0}, {1}, {2}, {0, 1}}
	perm := RelabelMap(sets, sets, 3)
	if !reflect.DeepEqual(perm, []int{0, 1, 2}) {
		t.Fatalf("perm = %v, want identity", perm)
	}
}

func TestRelabelMapEmptyOverlapIsPermutation(t *testing.T) {
	// No comparable tuples: result must still be a valid permutation and
	// prefer the identity.
	perm := RelabelMap(nil, nil, 5)
	seen := make([]bool, 5)
	for q, p := range perm {
		if p < 0 || p >= 5 || seen[p] {
			t.Fatalf("perm = %v is not a permutation", perm)
		}
		seen[p] = true
		if p != q {
			t.Fatalf("perm = %v, want identity on empty overlap", perm)
		}
	}
}

// refAssignmentDiff is AssignmentDiff as it was before it reused its delta
// scratch: a fresh SetDelta pair per tuple.
func refAssignmentDiff(oldSets, newSets [][]int, k int) Diff {
	d := Diff{PartGain: make([]int, k), PartLoss: make([]int, k)}
	for i := 0; i < min(len(oldSets), len(newSets)); i++ {
		o, nw := oldSets[i], newSets[i]
		if o == nil || nw == nil {
			continue
		}
		d.Total++
		adds, dels := SetDelta(o, nw)
		if len(adds) == 0 && len(dels) == 0 {
			continue
		}
		d.Moved++
		d.Copies += len(adds)
		d.Drops += len(dels)
		for _, p := range adds {
			if p >= 0 && p < k {
				d.PartGain[p]++
			}
		}
		for _, p := range dels {
			if p >= 0 && p < k {
				d.PartLoss[p]++
			}
		}
	}
	return d
}

// randomSets returns n sorted, duplicate-free replica sets over labels
// below k, with nil and empty sets mixed in.
func randomSets(rng *rand.Rand, n, k int) [][]int {
	sets := make([][]int, n)
	for i := range sets {
		switch rng.Intn(8) {
		case 0:
			continue // nil: unknown to this side
		case 1:
			sets[i] = []int{}
			continue
		}
		for p := 0; p < k; p++ {
			if rng.Intn(3) == 0 {
				sets[i] = append(sets[i], p)
			}
		}
	}
	return sets
}

func TestAssignmentDiffMatchesSetDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		k := 1 + rng.Intn(8)
		oldSets, newSets := randomSets(rng, 1+rng.Intn(300), k), randomSets(rng, 1+rng.Intn(300), k)
		// A few labels at or past k exercise the churn arrays' bounds.
		for _, s := range [][]int{oldSets[0], newSets[0]} {
			if len(s) > 0 {
				s[len(s)-1] = k + rng.Intn(2)
			}
		}
		got, want := AssignmentDiff(oldSets, newSets, k), refAssignmentDiff(oldSets, newSets, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: AssignmentDiff = %+v, per-tuple SetDelta gives %+v", round, got, want)
		}
	}
	sets := randomSets(rng, 500, 8)
	if a := testing.AllocsPerRun(10, func() { AssignmentDiff(sets, sets[1:], 8) }); a > 4 {
		t.Errorf("AssignmentDiff made %.0f allocations, want <= 4 (churn arrays and delta scratch)", a)
	}
}

// TestRelabelAssignmentsSharedSets relabels an assignment whose tuples
// share a handful of set slices, as graph.DenseAssignments returns them,
// and checks it against relabelling a deep copy in which no slice is
// shared: each shared slice must be permuted exactly once.
func TestRelabelAssignmentsSharedSets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 20; round++ {
		const k = 6
		pool := randomSets(rng, 5, k)
		shared := make([][]int, 400)
		for i := range shared {
			shared[i] = pool[rng.Intn(len(pool))]
		}
		deep := make([][]int, len(shared))
		for i, s := range shared {
			if s != nil {
				deep[i] = append([]int{}, s...)
			}
		}
		perm := rng.Perm(k)
		RelabelAssignments(shared, perm)
		RelabelAssignments(deep, perm)
		if !reflect.DeepEqual(shared, deep) {
			t.Fatalf("round %d: relabelled shared sets differ from relabelled deep copy", round)
		}
	}
}
