package bitset

import (
	"testing"
	"testing/quick"
)

func TestMatrixSetTest(t *testing.T) {
	m := NewMatrix(70)
	pairs := [][2]int{{0, 0}, {0, 69}, {69, 0}, {35, 64}, {64, 35}}
	for _, p := range pairs {
		if m.Test(p[0], p[1]) {
			t.Fatalf("(%d,%d) set before Set", p[0], p[1])
		}
		m.Set(p[0], p[1])
		if !m.Test(p[0], p[1]) {
			t.Fatalf("(%d,%d) not set after Set", p[0], p[1])
		}
	}
	if got := m.Count(); got != len(pairs) {
		t.Fatalf("Count() = %d, want %d", got, len(pairs))
	}
	// Out of range ignored.
	m.Set(-1, 0)
	m.Set(0, 70)
	if got := m.Count(); got != len(pairs) {
		t.Fatalf("out-of-range Set changed Count to %d", got)
	}
}

func TestMatrixRowOps(t *testing.T) {
	n := 100
	m := NewMatrix(n)
	v := New(n)
	v.Add(3)
	v.Add(64)
	v.Add(99)

	if m.RowContainsSet(7, v) {
		t.Fatal("empty row should not contain non-empty set")
	}
	m.RowUnionSet(7, v)
	if !m.RowContainsSet(7, v) {
		t.Fatal("row 7 should contain v after RowUnionSet")
	}
	if m.RowContainsSet(8, v) {
		t.Fatal("row 8 should not contain v")
	}
	// Empty set is contained in every row.
	if !m.RowContainsSet(8, New(n)) {
		t.Fatal("row 8 should contain the empty set")
	}
}

func TestMatrixUnionWith(t *testing.T) {
	a := NewMatrix(50)
	b := NewMatrix(50)
	a.Set(1, 2)
	b.Set(3, 4)
	a.UnionWith(b)
	if !a.Test(1, 2) || !a.Test(3, 4) {
		t.Fatal("UnionWith lost bits")
	}
	if b.Test(1, 2) {
		t.Fatal("UnionWith mutated operand")
	}
	// Mismatched dimension ignored.
	c := NewMatrix(10)
	a.UnionWith(c)
	if a.Count() != 2 {
		t.Fatal("mismatched UnionWith changed matrix")
	}
}

func TestMatrixSnapshotCOW(t *testing.T) {
	m := NewMatrix(64)
	m.Set(5, 6)
	snap := m.Snapshot()
	m.Set(7, 8)
	if snap.Test(7, 8) {
		t.Fatal("snapshot observed mutation")
	}
	if !snap.Test(5, 6) {
		t.Fatal("snapshot lost bit")
	}
	snap.Set(9, 10)
	if m.Test(9, 10) {
		t.Fatal("original observed snapshot mutation")
	}
	cl := m.Clone()
	m.Set(11, 12)
	if cl.Test(11, 12) {
		t.Fatal("clone observed mutation")
	}
}

// Property: RowContainsSet(q, v) holds iff every element of v is Test(q, ·).
func TestQuickMatrixRowContains(t *testing.T) {
	f := func(rowBits, setBits []uint16, rowSel uint8) bool {
		n := 90
		row := int(rowSel) % n
		m := NewMatrix(n)
		for _, b := range rowBits {
			m.Set(row, int(b)%n)
		}
		v := New(n)
		for _, b := range setBits {
			v.Add(int(b) % n)
		}
		want := true
		v.ForEach(func(i int) bool {
			if !m.Test(row, i) {
				want = false
				return false
			}
			return true
		})
		return m.RowContainsSet(row, v) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
