package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
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
		tx := co.begin(false)
		rows, err := tx.Exec(tc.sql)
		if err != nil || tx.stmtDist != 1 {
			t.Fatalf("%s: err %v, %d distributed statements, want a broadcast", tc.sql, err, tx.stmtDist)
		}
		tx.abort()
		if !reflect.DeepEqual(rows, tc.want) {
			t.Errorf("%s\n got %v\nwant %v", tc.sql, rows, tc.want)
		}
	}
}

// TestOrderByUnselectedColumnFails: a SELECT whose ORDER BY column is not
// in the rows it returns, because it selects other columns or the table
// lacks it, fails with an error instead of indexing each row at the
// column's table position, which panicked the node's worker. The cluster
// goes on serving, without replication and with it.
func TestOrderByUnselectedColumnFails(t *testing.T) {
	for _, r := range []int{1, 3} {
		var c *Cluster
		var co *Coordinator
		if r == 1 {
			c, co, _ = newAccountCluster(t, 2, 8)
		} else {
			c, co, _ = newGroupCluster(t, 2, 3, 8, 0)
		}
		exec := func(sql string) ([]storage.Row, error) {
			var rows []storage.Row
			_, _, err := co.RunTxn(func(tx *Txn) error {
				var err error
				rows, err = tx.Exec(sql)
				return err
			})
			return rows, err
		}
		for _, sql := range []string{
			"SELECT id FROM account WHERE bal = 1000 ORDER BY bal LIMIT 3",
			"SELECT * FROM account WHERE id = 3 ORDER BY nosuch",
		} {
			if _, err := exec(sql); err == nil || !strings.Contains(err.Error(), "ORDER BY") {
				t.Errorf("R=%d %s: err %v, want an ORDER BY error", r, sql, err)
			}
		}
		rows, err := exec("SELECT bal, id FROM account WHERE bal = 1000 ORDER BY id LIMIT 3")
		if err != nil || len(rows) != 3 || rows[0][1].I != 0 || rows[2][1].I != 2 {
			t.Errorf("R=%d: ordered read after the failures: %v, %v", r, rows, err)
		}
		c.Close()
	}
}
