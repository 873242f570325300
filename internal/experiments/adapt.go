package experiments

import (
	"fmt"
	"io"
	"time"

	"schism/internal/live"
	"schism/internal/workload"
)

// The adapt sweep quantifies the warm-start repartitioning policy
// (ROADMAP item 5c) on the PR-3 drift scenarios: the post-shift trace
// streams through the repartitioner in window-sized chunks, once with
// every cycle running the full multilevel cut ("cold") and once with the
// drift-gated warm-start policy enabled ("warm"). Per cycle it reports
// the mode the policy chose, the wall-clock cycle time, the implied
// tuple movement, and the deployed placement's distributed rate on that
// cycle's window — the acceptance comparison for "warm cycles are ≥10x
// cheaper with movement and quality no worse than from-scratch".

// AdaptCycle is one repartitioning cycle of the sweep.
type AdaptCycle struct {
	// Mode is the path the policy chose (full multilevel vs warm refine),
	// and Drift the detector ratio that fed the decision.
	Mode  live.CycleMode
	Drift float64
	// Elapsed is the full repartition call (graph build + cut + relabel).
	Elapsed time.Duration
	// Moved is the relabeled movement the cycle implies.
	Moved int
	// After is the adapted placement's distributed fraction on the
	// cycle's own window.
	After float64
}

// AdaptRun is one scenario × configuration outcome.
type AdaptRun struct {
	Scenario string
	// Warm reports whether the drift-gated warm-start policy was on.
	Warm   bool
	Cycles []AdaptCycle
	// FinalDist scores the final placement on the pure post-shift trace;
	// OfflineDist is the from-scratch offline comparator on the same
	// trace (identical for both configurations of a scenario).
	FinalDist, OfflineDist float64
	// TotalMoved sums the per-cycle movement.
	TotalMoved int
}

// FullCycles / WarmCycles count cycles by chosen mode.
func (r AdaptRun) FullCycles() int { return len(r.Cycles) - r.WarmCycles() }
func (r AdaptRun) WarmCycles() int {
	n := 0
	for _, c := range r.Cycles {
		if c.Mode == live.ModeWarm {
			n++
		}
	}
	return n
}

// avgByMode averages cycle time over cycles of one mode; 0 when none ran.
func (r AdaptRun) avgByMode(mode live.CycleMode) time.Duration {
	var sum time.Duration
	n := 0
	for _, c := range r.Cycles {
		if c.Mode == mode {
			sum += c.Elapsed
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// AdaptResult pairs the cold and warm runs of one scenario.
type AdaptResult struct {
	Cold, Warm AdaptRun
}

// adaptChunks splits a trace into n contiguous window-sized chunks.
func adaptChunks(tr *workload.Trace, n int) []*workload.Trace {
	if n < 1 {
		n = 1
	}
	total := len(tr.Txns)
	size := (total + n - 1) / n
	var out []*workload.Trace
	for lo := 0; lo < total; lo += size {
		hi := lo + size
		if hi > total {
			hi = total
		}
		chunk := workload.NewTrace()
		for _, tx := range tr.Txns[lo:hi] {
			chunk.Add(tx.Accesses)
		}
		out = append(out, chunk)
	}
	return out
}

// adaptRun replays one scenario through the repartitioner with the given
// policy: deploy the pre-shift placement, then stream the post-shift trace
// into a capture window chunk by chunk, repartitioning the window snapshot
// after each chunk and chaining the deployed placement forward (the
// freshest cycle's placement wins; older cycles and the hash fallback
// cover tuples it never saw). The repartitioner is driven directly rather
// than through the Controller so every chunk yields exactly one cycle of
// the mode the policy picks — the comparison needs equal cycle counts on
// both arms.
func adaptRun(sc driftScenario, warm bool, chunks int) (AdaptRun, error) {
	cfg := live.RepartitionConfig{
		K: sc.k, Graph: sc.gopts, Metis: sc.mopts,
		WarmStart: warm,
		// A tight backstop: refine-only cycles can wedge in a local minimum
		// the drift ratio cannot see (it is relative to the deployed
		// baseline, not to the best achievable cut), so periodically pay
		// for a full cut regardless.
		FullCutEveryN: 3,
	}
	rep, err := live.NewRepartitioner(cfg)
	if err != nil {
		return AdaptRun{}, err
	}
	initial, err := rep.Repartition(sc.initialTr, nil)
	if err != nil {
		return AdaptRun{}, err
	}
	locate := sc.deployedLocate(initial.LocateFunc())
	// The sweep's chunks are its windows: drop the scenario's MinWindow so
	// every chunk scores even at -quick sizes.
	dcfg := sc.detector
	dcfg.MinWindow = 1
	det := live.NewDetector(dcfg)
	det.SetBaseline(live.ScoreWindow(sc.initialTr, sc.k, locate))

	out := AdaptRun{Scenario: sc.name, Warm: warm}
	win := live.NewWindow(sc.window)
	for _, chunk := range adaptChunks(sc.shiftedTr, chunks) {
		for _, tx := range chunk.Txns {
			win.Record(tx.Accesses)
		}
		snap := win.Snapshot()
		drift := det.Drift(live.ScoreWindow(snap, sc.k, locate))
		start := time.Now()
		res, err := rep.RepartitionDrift(snap, locate, drift)
		if err != nil {
			return AdaptRun{}, err
		}
		elapsed := time.Since(start)

		// Chain the placements: the fresh cycle's assignment wins, tuples
		// it never saw fall back to the previously deployed placement.
		prev, cur := locate, res.LocateFunc()
		locate = func(id workload.TupleID) []int {
			if parts := cur(id); parts != nil {
				return parts
			}
			return prev(id)
		}
		after := live.ScoreWindow(snap, sc.k, locate)
		// Mirror the controller: only a full cut resets the baseline, so
		// drift accumulated across warm cycles can trigger the escape.
		if res.Mode == live.ModeFull {
			det.SetBaseline(after)
		}
		out.Cycles = append(out.Cycles, AdaptCycle{
			Mode: res.Mode, Drift: drift, Elapsed: elapsed,
			Moved: res.Diff.Moved, After: after.Distributed,
		})
		out.TotalMoved += res.Diff.Moved
	}
	out.FinalDist = live.ScoreWindow(sc.shiftedTr, sc.k, locate).Distributed

	offrep, err := live.NewRepartitioner(live.RepartitionConfig{K: sc.k, Graph: sc.gopts, Metis: sc.mopts})
	if err != nil {
		return AdaptRun{}, err
	}
	offline, err := offrep.Repartition(sc.shiftedTr, nil)
	if err != nil {
		return AdaptRun{}, err
	}
	out.OfflineDist = live.ScoreWindow(sc.shiftedTr, sc.k, sc.deployedLocate(offline.LocateFunc())).Distributed
	return out, nil
}

// Adapt runs the cold and warm arms of one drift scenario ("ycsb" or
// "tpcc").
func Adapt(name string, s Scale) (AdaptResult, error) {
	chunks := s.scaled(6, 4)
	sc, err := scenarioByName(name, s)
	if err != nil {
		return AdaptResult{}, err
	}
	cold, err := adaptRun(sc, false, chunks)
	if err != nil {
		return AdaptResult{}, err
	}
	// Rebuild the scenario so both arms start from identical state (the
	// scenario holds a mutable database handle).
	sc, err = scenarioByName(name, s)
	if err != nil {
		return AdaptResult{}, err
	}
	warm, err := adaptRun(sc, true, chunks)
	if err != nil {
		return AdaptResult{}, err
	}
	return AdaptResult{Cold: cold, Warm: warm}, nil
}

// PrintAdapt renders one scenario's cold-vs-warm comparison.
func PrintAdapt(w io.Writer, r AdaptResult) {
	fmt.Fprintf(w, "Adaptation-cycle sweep: %s\n", r.Cold.Scenario)
	for _, run := range []AdaptRun{r.Cold, r.Warm} {
		label := "cold (full cut every cycle)"
		if run.Warm {
			label = "warm (drift-gated refine-only)"
		}
		fmt.Fprintf(w, "%s:\n", label)
		var rows [][]string
		for i, c := range run.Cycles {
			rows = append(rows, []string{
				fmt.Sprintf("%d", i+1),
				string(c.Mode),
				fmt.Sprintf("%.2f", c.Drift),
				c.Elapsed.Round(time.Microsecond).String(),
				fmt.Sprintf("%d", c.Moved),
				pct(c.After),
			})
		}
		table(w, []string{"cycle", "mode", "drift", "time", "moved", "%distributed"}, rows)
		fmt.Fprintf(w, "  cycles: %d full (avg %v), %d warm (avg %v)\n",
			run.FullCycles(), run.avgByMode(live.ModeFull).Round(time.Microsecond),
			run.WarmCycles(), run.avgByMode(live.ModeWarm).Round(time.Microsecond))
		fmt.Fprintf(w, "  moved %d tuples total; post-shift %%distributed %s (offline from-scratch %s)\n",
			run.TotalMoved, pct(run.FinalDist), pct(run.OfflineDist))
	}
	if f, wa := r.Cold.avgByMode(live.ModeFull), r.Warm.avgByMode(live.ModeWarm); f > 0 && wa > 0 {
		fmt.Fprintf(w, "steady-state speedup: full %v -> warm %v (%.1fx)\n",
			f.Round(time.Microsecond), wa.Round(time.Microsecond), float64(f)/float64(wa))
	}
}
