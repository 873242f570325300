package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"schism/internal/storage"
)

// TestBroadcastOrderByLimitIsGlobal: a SELECT … ORDER BY … LIMIT n sent to
// several nodes returns the first n rows of all of them, not the first
// replier's first n. Each node keeps its own sort and cut as a pushdown.
func TestBroadcastOrderByLimitIsGlobal(t *testing.T) {
	const total = 16
	c, co, _ := newAccountCluster(t, 2, total/2)
	defer c.Close()
	// Balances that order the accounts differently from their ids.
	if _, _, err := co.RunTxn(func(tx *Txn) error {
		for id := 0; id < total; id++ {
			if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = %d WHERE id = %d", (id*7)%total, id)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := Logical(c)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]storage.Row, 0, total) // (id, bal) of every account
	snap.Visit("account", func(_ int64, row storage.Row) { all = append(all, slices.Clone(row)) })
	if len(all) != total {
		t.Fatalf("cluster holds %d accounts, want %d", len(all), total)
	}
	// want sorts all on column col of the projection proj and keeps n.
	want := func(proj []int, col int, desc bool, n int) []storage.Row {
		rows := make([]storage.Row, len(all))
		for i, r := range all {
			for _, ci := range proj {
				rows[i] = append(rows[i], r[ci])
			}
		}
		sort.SliceStable(rows, func(i, j int) bool {
			if desc {
				return rows[i][col].I > rows[j][col].I
			}
			return rows[i][col].I < rows[j][col].I
		})
		return rows[:n]
	}
	for _, tc := range []struct {
		sql  string
		want []storage.Row
	}{
		{"SELECT * FROM account WHERE id BETWEEN 0 AND 15 ORDER BY id LIMIT 1", want([]int{0, 1}, 0, false, 1)},
		{"SELECT * FROM account WHERE id BETWEEN 0 AND 15 ORDER BY id DESC LIMIT 1", want([]int{0, 1}, 0, true, 1)},
		{"SELECT * FROM account WHERE id BETWEEN 0 AND 15 ORDER BY bal LIMIT 5", want([]int{0, 1}, 1, false, 5)},
		{"SELECT bal, id FROM account WHERE id >= 0 ORDER BY bal DESC LIMIT 3", want([]int{1, 0}, 0, true, 3)},
		{"SELECT id FROM account WHERE bal >= 0 ORDER BY id DESC LIMIT 4", want([]int{0}, 0, true, 4)},
	} {
		tx := co.Begin()
		rows, err := tx.Exec(tc.sql)
		if _, dist := tx.StmtCounts(); err != nil || dist != 1 {
			t.Fatalf("%s: err %v, %d distributed statements, want a broadcast", tc.sql, err, dist)
		}
		tx.Abort()
		if !reflect.DeepEqual(rows, tc.want) {
			t.Errorf("%s\n got %v\nwant %v", tc.sql, rows, tc.want)
		}
	}
}
