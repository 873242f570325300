package metis

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/solver.golden from this run")

const solverGoldenPath = "testdata/solver.golden"

// solverDigest hashes a partitioner's answer: every label, then the cost.
func solverDigest(parts []int32, cost int64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(b[:4], uint32(p))
		h.Write(b[:4])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(cost))
	h.Write(b[:])
	return fmt.Sprintf("%016x", h.Sum64())
}

// overloadedLabels puts every even node on part 0 and spreads the odd
// ones round-robin, so part 0 holds over half the weight and the warm
// path's rebalance has to move nodes before refinement starts.
func overloadedLabels(n, k int) []int32 {
	parts := make([]int32, n)
	for i := range parts {
		if i%2 == 1 {
			parts[i] = int32(i / 2 % k)
		}
	}
	return parts
}

// solverCase is one partitioner call of the solver digest, run on the
// given Solver.
type solverCase struct {
	name string
	run  func(s *Solver) ([]int32, int64, error)
}

// solverCases is the digest's matrix: PartKway and PartHKway at
// k ∈ {2, 3, 8} on three seeded synthetic inputs each (k = 3 drives the
// uneven recursive bisection), and RefineHKway at k ∈ {3, 8} from a
// striped start and from an overloaded one.
func solverCases() []solverCase {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"rand1500", randomGraph(1500, 6000, 31)},
		{"rand3000", randomGraph(3000, 9000, 32)},
		{"sparse2000", randomGraph(2000, 2600, 33)},
	}
	hypers := []struct {
		name string
		h    *HGraph
	}{
		{"rand1500", randomHyper(1500, 2500, 41)},
		{"rand3000", randomHyper(3000, 3500, 42)},
		{"cluster8x60", clusterHyper(8, 60, 43)},
	}
	var cases []solverCase
	for _, k := range []int{2, 3, 8} {
		for _, in := range graphs {
			g, k := in.g, k
			cases = append(cases, solverCase{fmt.Sprintf("kway/%s/k%d", in.name, k), func(s *Solver) ([]int32, int64, error) {
				return s.PartKway(g, k, Options{Seed: int64(k)})
			}})
		}
		for _, in := range hypers {
			h, k := in.h, k
			cases = append(cases, solverCase{fmt.Sprintf("hkway/%s/k%d", in.name, k), func(s *Solver) ([]int32, int64, error) {
				return s.PartHKway(h, k, Options{Seed: int64(k)})
			}})
		}
	}
	starts := []struct {
		name   string
		labels func(n, k int) []int32
	}{
		{"striped", stripedLabels},
		{"overloaded", overloadedLabels},
	}
	for _, k := range []int{3, 8} {
		for _, in := range hypers {
			for _, st := range starts {
				h, k, labels := in.h, k, st.labels
				cases = append(cases, solverCase{fmt.Sprintf("refine/%s/%s/k%d", in.name, st.name, k), func(s *Solver) ([]int32, int64, error) {
					parts := labels(h.NumNodes(), k)
					cost, err := s.RefineHKway(h, k, parts, Options{Seed: 5})
					return parts, cost, err
				}})
			}
		}
	}
	return cases
}

// TestSolverDigest is the partitioner's same-answer check: it hashes the
// labels and cost of every solverCases call on a fresh Solver and
// compares them with testdata/solver.golden, then replays the matrix
// clique → hypergraph → clique on one reused Solver, whose answers must
// equal the fresh ones. A change meant to keep the answer passes it with
// the golden untouched; one that moves the answer on purpose rewrites it
// with -update and says which calls changed and why.
func TestSolverDigest(t *testing.T) {
	cases := solverCases()
	lines := make([]string, len(cases))
	fresh := make(map[string]string, len(cases))
	for i, c := range cases {
		parts, cost, err := c.run(NewSolver())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fresh[c.name] = solverDigest(parts, cost)
		lines[i] = c.name + " " + fresh[c.name]
	}

	// One Solver, its scratch dirtied by every objective in turn: the
	// clique calls, then the hypergraph and warm calls, then the clique
	// calls again.
	s := NewSolver()
	var clique, other []solverCase
	for _, c := range cases {
		if strings.HasPrefix(c.name, "kway/") {
			clique = append(clique, c)
		} else {
			other = append(other, c)
		}
	}
	for _, c := range append(append(clique, other...), clique...) {
		parts, cost, err := c.run(s)
		if err != nil {
			t.Fatalf("reused %s: %v", c.name, err)
		}
		if got := solverDigest(parts, cost); got != fresh[c.name] {
			t.Errorf("reused solver %s: %s, fresh solver %s", c.name, got, fresh[c.name])
		}
	}

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(solverGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), solverGoldenPath)
		return
	}
	f, err := os.Open(solverGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestSolverDigest -update)", err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			golden[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var changed []string
	for _, c := range cases {
		if golden[c.name] != fresh[c.name] {
			changed = append(changed, fmt.Sprintf("%s: %s, golden %q", c.name, fresh[c.name], golden[c.name]))
		}
	}
	if len(changed) > 0 {
		t.Errorf("%d of %d calls changed their answer:\n%s", len(changed), len(cases), strings.Join(changed, "\n"))
	}
}
