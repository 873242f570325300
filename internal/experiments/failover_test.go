package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestFailoverExperiment is the acceptance gate for the availability
// claim: with R=3, a leader crash costs milliseconds of failover and the
// cluster keeps committing, while R=1 is dark until the restart.
func TestFailoverExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover runs belong to the chaos CI job")
	}
	rows, err := Failover(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintFailover(&sb, rows)
	t.Logf("\n%s", sb.String())

	if len(rows) != 2 || rows[0].R != 1 || rows[1].R != 3 {
		t.Fatalf("rows = %+v, want R=1 and R=3", rows)
	}
	for _, r := range rows {
		if r.BaseTPS <= 0 || r.TPS <= 0 {
			t.Errorf("R=%d: no throughput (base=%.0f crash=%.0f)", r.R, r.BaseTPS, r.TPS)
		}
		if r.Failover <= 0 {
			t.Errorf("R=%d: failover time not measured", r.R)
		}
		if r.BaselineBucket <= 0 {
			t.Errorf("R=%d: empty pre-crash baseline bucket", r.R)
		}
	}
	// Electing a standing replica must be far faster than restarting and
	// replaying the only copy (the quick-mode restart delay is 250ms).
	if rows[1].Failover >= rows[0].Failover {
		t.Errorf("R=3 failover %v not below R=1 restart %v", rows[1].Failover, rows[0].Failover)
	}
	// The R=3 crash run must resolve its failover timeline from the
	// observability events: a positive detection lag (heartbeat silence
	// up to the election timeout), the election and no-op barrier
	// stamped, and the crashed group committing again afterwards.
	r3 := rows[1]
	if r3.Detect <= 0 {
		t.Errorf("R=3: detection lag not resolved from timeline (%v)", r3.Detect)
	}
	if r3.Detect+r3.Elect+r3.Barrier+r3.FirstCommit > 5*time.Second {
		t.Errorf("R=3: implausible failover breakdown %v/%v/%v/%v", r3.Detect, r3.Elect, r3.Barrier, r3.FirstCommit)
	}
	if r3.Metrics == nil {
		t.Fatal("R=3: crash-run metrics snapshot missing")
	}
	for _, h := range []string{"2pc.prepare", "2pc.commit", "repl.append.quorum", "repl.commit.apply", "wal.force"} {
		if r3.Metrics.Hists[h].Count == 0 {
			t.Errorf("R=3: phase histogram %q empty", h)
		}
	}
	var sawFirst bool
	for _, ev := range r3.Metrics.Events {
		if ev.Kind == "first-commit" && ev.Group == 0 {
			sawFirst = true
		}
	}
	if !sawFirst {
		t.Error("R=3: no first-commit event for the crashed group")
	}
}
