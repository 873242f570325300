package lookup

import "testing"

func testTableBasics(t *testing.T, mk func() Table) {
	t.Helper()
	tbl := mk()
	if _, ok := tbl.Locate(5); ok {
		t.Error("empty table should miss")
	}
	tbl.Set(5, []int{2})
	tbl.Set(6, []int{0, 1})
	tbl.Set(7, []int{1, 1, 0}) // duplicates normalised
	if parts, ok := tbl.Locate(5); !ok || !containsAll(parts, 2) {
		t.Errorf("Locate(5) = %v %v", parts, ok)
	}
	if parts, ok := tbl.Locate(6); !ok || !containsAll(parts, 0, 1) {
		t.Errorf("Locate(6) = %v %v", parts, ok)
	}
	if parts, ok := tbl.Locate(7); !ok || !containsAll(parts, 0, 1) {
		t.Errorf("Locate(7) = %v %v", parts, ok)
	}
	// Overwrite.
	tbl.Set(5, []int{3})
	if parts, _ := tbl.Locate(5); !containsAll(parts, 3) {
		t.Errorf("overwrite failed: %v", parts)
	}
	if tbl.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}

func containsAll(parts []int, want ...int) bool {
	for _, w := range want {
		found := false
		for _, p := range parts {
			if p == w {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestCompactInternsSets: keys with one set share one dictionary entry,
// in slots and in the side map alike.
func TestCompactInternsSets(t *testing.T) {
	c := NewCompact()
	c.Set(1, []int{0, 2})
	c.Set(2, []int{2, 0, 2})
	c.Set(1<<40, []int{0, 2})
	if c.Len() != 3 || len(c.side) != 1 {
		t.Errorf("Len = %d with %d in the side map, want 3 with 1", c.Len(), len(c.side))
	}
	if len(c.dict.sets) != 1 {
		t.Errorf("sets interned = %d, want 1", len(c.dict.sets))
	}
}

func TestNormalisePanicsOnBadPartition(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for partition >= 254")
		}
	}()
	NewCompact().Set(1, []int{300})
}
