package bitset

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewIsEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		s := New(n)
		if !s.Empty() {
			t.Errorf("New(%d) not empty", n)
		}
		if s.Count() != 0 {
			t.Errorf("New(%d).Count() = %d, want 0", n, s.Count())
		}
		if s.Universe() != n {
			t.Errorf("Universe() = %d, want %d", s.Universe(), n)
		}
	}
}

func TestAddTestRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 127, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set before Add", i)
		}
		s.Add(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Add", i)
		}
	}
	if got := s.Count(); got != 6 {
		t.Fatalf("Count() = %d, want 6", got)
	}
	s.Remove(63)
	if s.Test(63) {
		t.Fatal("bit 63 still set after Remove")
	}
	if got := s.Count(); got != 5 {
		t.Fatalf("Count() = %d, want 5", got)
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	s := New(10)
	s.Add(-1)
	s.Add(10)
	s.Add(1000)
	if !s.Empty() {
		t.Fatal("out-of-range Add mutated the set")
	}
	if s.Test(-5) || s.Test(10) {
		t.Fatal("out-of-range Test returned true")
	}
}

func TestFillFullClear(t *testing.T) {
	for _, n := range []int{1, 64, 65, 100} {
		s := New(n)
		s.Fill()
		if !s.Full() {
			t.Errorf("n=%d: Fill did not produce a full set (count %d)", n, s.Count())
		}
		if s.Count() != n {
			t.Errorf("n=%d: Count after Fill = %d", n, s.Count())
		}
		s.Clear()
		if !s.Empty() {
			t.Errorf("n=%d: Clear did not empty the set", n)
		}
	}
}

func TestUnionIntersectDifference(t *testing.T) {
	a := New(200)
	b := New(200)
	for i := 0; i < 200; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 200; i += 3 {
		b.Add(i)
	}
	u := a.Clone()
	u.UnionWith(b)
	for i := 0; i < 200; i++ {
		want := i%2 == 0 || i%3 == 0
		if u.Test(i) != want {
			t.Fatalf("union bit %d = %v, want %v", i, u.Test(i), want)
		}
	}
	// a \ b by AppendDiff, and a ∩ b as a \ (a \ b).
	diff := a.AppendDiff(b, nil)
	d, x := New(200), a.Clone()
	for _, i := range diff {
		d.Add(int(i))
		x.Remove(int(i))
	}
	for i := 0; i < 200; i++ {
		if want := i%2 == 0 && i%3 != 0; d.Test(i) != want {
			t.Fatalf("difference bit %d = %v, want %v", i, d.Test(i), want)
		}
		if want := i%2 == 0 && i%3 == 0; x.Test(i) != want {
			t.Fatalf("intersect bit %d = %v, want %v", i, x.Test(i), want)
		}
	}
}

func TestSubsetEqual(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Add(5)
	a.Add(50)
	b.Add(5)
	b.Add(50)
	b.Add(99)
	if !a.SubsetOf(b) {
		t.Fatal("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Fatal("b should not be subset of a")
	}
	if a.Equal(b) {
		t.Fatal("a should not equal b")
	}
	a.Add(99)
	if !a.Equal(b) {
		t.Fatal("a should equal b after Add(99)")
	}
	if !New(100).SubsetOf(a) {
		t.Fatal("empty set should be subset of anything")
	}
}

func TestSnapshotCopyOnWrite(t *testing.T) {
	s := New(100)
	s.Add(1)
	snap := s.Snapshot()
	// Mutating the original must not change the snapshot.
	s.Add(2)
	if snap.Test(2) {
		t.Fatal("snapshot observed mutation of original")
	}
	if !snap.Test(1) {
		t.Fatal("snapshot lost pre-snapshot bit")
	}
	// Mutating the snapshot must not change the original.
	snap.Add(3)
	if s.Test(3) {
		t.Fatal("original observed mutation of snapshot")
	}
	// Chained snapshots.
	s2 := s.Snapshot().Snapshot()
	s.Add(4)
	if s2.Test(4) {
		t.Fatal("chained snapshot observed mutation")
	}
}

func TestSnapshotIsCheapAlias(t *testing.T) {
	s := New(1 << 16)
	s.Add(12345)
	snap := s.Snapshot()
	if !snap.Test(12345) || snap.Count() != 1 {
		t.Fatal("snapshot content wrong")
	}
	// Reading must not unshare.
	if !s.shared || !snap.shared {
		t.Fatal("reads unshared the snapshot")
	}
}

func TestForEachElements(t *testing.T) {
	s := New(300)
	want := []int{0, 7, 64, 128, 255, 299}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Elements()
	if len(got) != len(want) {
		t.Fatalf("Elements() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Early stop.
	count := 0
	s.ForEach(func(int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("ForEach early stop visited %d, want 3", count)
	}
}

func TestStringSmall(t *testing.T) {
	s := New(10)
	s.Add(1)
	s.Add(3)
	if got := s.String(); got != "{1, 3}" {
		t.Fatalf("String() = %q", got)
	}
}

// Property: union is commutative, associative, idempotent; subset/count laws.
func TestQuickUnionLaws(t *testing.T) {
	r := rng.New(42)
	mk := func(bits []uint16, n int) *Set {
		s := New(n)
		for _, b := range bits {
			s.Add(int(b) % n)
		}
		return s
	}
	f := func(xs, ys []uint16) bool {
		n := 257
		a := mk(xs, n)
		b := mk(ys, n)
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		if !ab.Equal(ba) {
			return false
		}
		if !a.SubsetOf(ab) || !b.SubsetOf(ab) {
			return false
		}
		// |a ∪ b| = |a| + |b| - |a ∩ b|
		both := 0
		a.ForEach(func(i int) bool {
			if b.Test(i) {
				both++
			}
			return true
		})
		if ab.Count() != a.Count()+b.Count()-both {
			return false
		}
		// idempotence
		aa := a.Clone()
		aa.UnionWith(a)
		if !aa.Equal(a) {
			return false
		}
		// random extra membership probe
		i := r.Intn(n)
		return ab.Test(i) == (a.Test(i) || b.Test(i))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshots never observe later mutations.
func TestQuickSnapshotIsolation(t *testing.T) {
	f := func(pre, post []uint16) bool {
		n := 300
		s := New(n)
		for _, b := range pre {
			s.Add(int(b) % n)
		}
		snap := s.Snapshot()
		before := snap.Count()
		for _, b := range post {
			s.Add(int(b) % n)
		}
		return snap.Count() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnion1024(b *testing.B) {
	x := New(1024)
	y := New(1024)
	for i := 0; i < 1024; i += 3 {
		y.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.UnionWith(y)
	}
}

func BenchmarkSnapshot4096(b *testing.B) {
	x := New(4096)
	x.Fill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Snapshot()
	}
}
