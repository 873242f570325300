package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refGroupSets is groupSets as it was before sets were shared: a fresh
// slice per group. It is the oracle for the interning version.
func refGroupSets(g *Graph, parts []int32) [][]int {
	sets := make([][]int, len(g.groupBase))
	for gi := range g.groupBase {
		base := g.groupBase[gi]
		if !g.exploded[gi] {
			sets[gi] = []int{int(parts[base])}
			continue
		}
		var set []int
		for ri := int32(0); ri < g.accCount[gi]; ri++ {
			p := int(parts[base+1+ri])
			dup := false
			for _, q := range set {
				if q == p {
					dup = true
					break
				}
			}
			if !dup {
				set = append(set, p)
			}
		}
		sort.Ints(set)
		sets[gi] = set
	}
	return sets
}

// TestGroupSetsMatchReference checks that the interned group sets equal the
// per-group reference on clique and hypergraph builds, with and without
// coalescing and replication, for label counts up to lookup's 254 (labels
// of 128 and up take two uvarint bytes in the intern key). Labels are drawn
// both uniformly and from a few hot labels, so sets repeat. It also checks
// the sharing itself: no more backing arrays than distinct sets, each
// capped at its length.
func TestGroupSetsMatchReference(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(5)), 300)
	for _, hyper := range []bool{false, true} {
		for _, coalesce := range []bool{false, true} {
			for _, repl := range []bool{false, true} {
				opts := Options{Coalesce: coalesce, Replication: repl, Seed: 3}
				build := Build
				if hyper {
					build = BuildHyper
				}
				g := mustBuild(build(tr, opts))
				for _, k := range []int{2, 8, 64, 254} {
					for _, hot := range []bool{false, true} {
						name := fmt.Sprintf("hyper=%v/coalesce=%v/repl=%v/k=%d/hot=%v", hyper, coalesce, repl, k, hot)
						checkGroupSets(t, name, g, randomLabels(g, k, hot, int64(k)))
					}
				}
			}
		}
	}
}

// randomLabels labels every node of g with a partition below k: uniformly,
// or (hot) mostly from the three highest labels.
func randomLabels(g *Graph, k int, hot bool, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]int32, g.NumNodes())
	for i := range parts {
		if hot && rng.Intn(8) != 0 {
			parts[i] = int32(k - 1 - rng.Intn(min(3, k)))
		} else {
			parts[i] = int32(rng.Intn(k))
		}
	}
	return parts
}

func checkGroupSets(t *testing.T, name string, g *Graph, parts []int32) {
	t.Helper()
	got, want := g.groupSets(parts), refGroupSets(g, parts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: group sets differ from the per-group reference", name)
	}
	arrays := map[*int]bool{}
	distinct := map[string]bool{}
	for gi, s := range got {
		if len(s) == 0 {
			t.Fatalf("%s: group %d has an empty set", name, gi)
		}
		if cap(s) != len(s) {
			t.Fatalf("%s: group %d's set %v has spare capacity %d", name, gi, s, cap(s)-len(s))
		}
		arrays[&s[0]] = true
		distinct[fmt.Sprint(s)] = true
	}
	if len(arrays) > len(distinct) {
		t.Fatalf("%s: %d backing arrays for %d distinct sets", name, len(arrays), len(distinct))
	}
}
