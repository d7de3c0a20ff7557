package bitset

import (
	"math/rand"
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

// randomMatrix returns an n×n matrix whose bits are set with probability
// about density.
func randomMatrix(r *rand.Rand, n int, density float64) *Matrix {
	m := NewMatrix(n)
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			if r.Float64() < density {
				m.Set(row, col)
			}
		}
	}
	return m
}

// Property: CountUpTo(l) is the exact count below l and at least l
// otherwise.
func TestMatrixCountUpTo(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(140)
		m := randomMatrix(r, n, r.Float64())
		want := 0
		for row := 0; row < n; row++ {
			for col := 0; col < n; col++ {
				if m.Test(row, col) {
					want++
				}
			}
		}
		if got := m.Count(); got != want {
			t.Fatalf("n=%d: Count() = %d, want %d", n, got, want)
		}
		for _, limit := range []int{0, 1, want, want + 1, r.Intn(n*n + 2)} {
			got := m.CountUpTo(limit)
			if want < limit && got != want {
				t.Fatalf("n=%d: CountUpTo(%d) = %d, want the exact %d", n, limit, got, want)
			}
			if want >= limit && got < limit {
				t.Fatalf("n=%d: CountUpTo(%d) = %d with %d bits set, want ≥ %[2]d", n, limit, got, want)
			}
		}
	}
}

// Property: UnionWith and UnionRows compute the row-by-row union and
// report true exactly when the matrix changed.
func TestMatrixUnionReportsChange(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(140)
		a := randomMatrix(r, n, r.Float64())
		b := randomMatrix(r, n, r.Float64()*0.05)
		if r.Intn(3) == 0 {
			b = a.Clone() // no news
		}
		rows := New(n)
		for q := 0; q < n; q++ {
			if r.Intn(2) == 0 {
				rows.Add(q)
			}
		}
		all, want := a.Clone(), a.Clone()
		for row := 0; row < n; row++ {
			for col := 0; col < n; col++ {
				if b.Test(row, col) {
					all.Set(row, col)
					if rows.Test(row) {
						want.Set(row, col)
					}
				}
			}
		}

		got := a.Clone()
		changed := got.UnionRows(b, rows)
		if !got.Equal(want) {
			t.Fatalf("n=%d: UnionRows differs from the row-by-row union", n)
		}
		if changed != !want.Equal(a) {
			t.Fatalf("n=%d: UnionRows reported changed=%v", n, changed)
		}

		got = a.Clone()
		changed = got.UnionWith(b)
		if !got.Equal(all) {
			t.Fatalf("n=%d: UnionWith differs from the bitwise union", n)
		}
		if changed != !all.Equal(a) {
			t.Fatalf("n=%d: UnionWith reported changed=%v", n, changed)
		}
		if got.UnionWith(b) {
			t.Fatalf("n=%d: repeated UnionWith reported a change", n)
		}
	}
	m := NewMatrix(10)
	if m.UnionWith(nil) || m.UnionWith(NewMatrix(11)) || m.UnionRows(nil, New(10)) || m.UnionRows(NewMatrix(10), nil) {
		t.Fatal("a union with nothing to add reported a change")
	}
}

// A union that brings no news leaves a pooled matrix sharing storage with
// its live snapshot; the first union that adds a bit copies.
func TestMatrixNoNewsUnionKeepsSharing(t *testing.T) {
	p := NewPool(130)
	m := p.NewMatrix()
	m.Set(3, 4)
	m.Set(129, 128)
	sub := p.NewMatrix()
	sub.Set(129, 128)
	rows := New(130)
	rows.Fill()

	snap := m.Snapshot()
	if m.UnionWith(sub) || m.UnionRows(sub, rows) {
		t.Fatal("a subset union reported a change")
	}
	if &m.words[0] != &snap.words[0] {
		t.Fatal("a no-news union copied the matrix")
	}

	sub.Set(5, 6)
	if !m.UnionRows(sub, rows) {
		t.Fatal("a union that adds a bit reported no change")
	}
	if &m.words[0] == &snap.words[0] || snap.Test(5, 6) || !m.Test(5, 6) {
		t.Fatal("the first changing union must copy before it writes")
	}
	snap.Release()
}

// unionSink keeps the benchmarked unions' results live.
var unionSink bool

// BenchmarkMatrixUnion640 times one UnionWith at the ears_clique size:
// "nonews" ORs in a subset (the matrix is read, never written), "disjoint"
// adds a bit in every other column.
func BenchmarkMatrixUnion640(b *testing.B) {
	const n = 640
	r := rand.New(rand.NewSource(3))
	even, odd := NewMatrix(n), NewMatrix(n)
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			if r.Intn(2) == 0 {
				continue
			}
			if col%2 == 0 {
				even.Set(row, col)
			} else {
				odd.Set(row, col)
			}
		}
	}
	b.Run("nonews", func(b *testing.B) {
		dst := even.Clone()
		dst.UnionWith(odd)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			unionSink = dst.UnionWith(odd)
		}
	})
	b.Run("disjoint", func(b *testing.B) {
		dst := even.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(dst.words, even.words)
			b.StartTimer()
			unionSink = dst.UnionWith(odd)
		}
	})
}
