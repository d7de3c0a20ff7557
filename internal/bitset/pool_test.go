package bitset

import "testing"

// TestPooledSnapshotSemantics pins the refcounted copy-on-write behavior:
// mutation after snapshot copies, release returns storage, and a sole
// owner reclaims its buffer without copying.
func TestPooledSnapshotSemantics(t *testing.T) {
	p := NewPool(130) // 3 words, exercises multi-word paths
	s := p.NewSet()
	s.Add(1)
	s.Add(64)

	snap := s.Snapshot()
	if !snap.Test(1) || !snap.Test(64) || snap.Count() != 2 {
		t.Fatalf("snapshot content wrong: %v", snap)
	}

	// Mutating the owner must not change the snapshot.
	s.Add(129)
	if snap.Test(129) {
		t.Fatal("snapshot observed post-snapshot mutation")
	}
	if !s.Test(129) || s.Count() != 3 {
		t.Fatalf("owner content wrong after copy-on-write: %v", s)
	}

	snap.Release()

	// After all snapshots are gone, the owner mutates in place (no copy):
	// take a new snapshot, release it, then mutate — the owner must
	// reclaim sole ownership.
	snap2 := s.Snapshot()
	words := &snap2.words[0]
	snap2.Release()
	s.Add(2)
	if &s.words[0] != words {
		t.Fatal("owner copied although every snapshot had been released")
	}
	if s.Count() != 4 {
		t.Fatalf("owner count = %d, want 4", s.Count())
	}
}

// TestPoolRecyclesStorage checks that released buffers are reused and that
// NewSet re-zeroes recycled (stale) storage.
func TestPoolRecyclesStorage(t *testing.T) {
	p := NewPool(200)
	s := p.NewSet()
	s.Fill()
	snap := s.Snapshot()
	s.Clear() // copy-on-write: snapshot keeps the full buffer
	snap.Release()

	if w, _, sets, _ := p.Stats(); w != 1 || sets != 1 {
		t.Fatalf("after release: %d free word buffers, %d free headers (want 1, 1)", w, sets)
	}

	// The recycled buffer held all-ones; a fresh set must still be empty.
	fresh := p.NewSet()
	if !fresh.Empty() {
		t.Fatalf("fresh pooled set not empty: %v", fresh)
	}
}

// TestPooledMatrixSemantics mirrors the set test for the informed-list
// matrix.
func TestPooledMatrixSemantics(t *testing.T) {
	p := NewPool(70)
	m := p.NewMatrix()
	m.Set(3, 65)

	snap := m.Snapshot()
	m.Set(4, 4)
	if snap.Test(4, 4) {
		t.Fatal("matrix snapshot observed post-snapshot mutation")
	}
	if !snap.Test(3, 65) {
		t.Fatal("matrix snapshot lost content")
	}
	snap.Release()

	fresh := p.NewMatrix()
	if fresh.Count() != 0 {
		t.Fatalf("fresh pooled matrix not empty: count=%d", fresh.Count())
	}
}

// TestSnapshotReleaseCycleAllocs is the allocation budget for the per-send
// hot path: once the pool is warm, snapshot → mutate (copy-on-write into a
// recycled buffer) → release must not allocate at all.
func TestSnapshotReleaseCycleAllocs(t *testing.T) {
	p := NewPool(512)
	s := p.NewSet()
	s.Add(17)
	// Warm the pool: first cycle carves slabs.
	for i := 0; i < 100; i++ {
		snap := s.Snapshot()
		s.Add(i % 512)
		snap.Release()
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		snap := s.Snapshot()
		s.Add(i % 512) // forces a copy-on-write from the pool
		i++
		snap.Release()
	})
	if allocs != 0 {
		t.Fatalf("snapshot/mutate/release cycle allocates %.1f/op, want 0", allocs)
	}
}

// TestMergeAllocs pins the word-level merge and popcount paths at zero
// allocations (they back every rumor absorb).
func TestMergeAllocs(t *testing.T) {
	a, b := New(1024), New(1024)
	for i := 0; i < 1024; i += 3 {
		a.Add(i)
	}
	for i := 0; i < 1024; i += 5 {
		b.Add(i)
	}
	var scratch []int32
	allocs := testing.AllocsPerRun(1000, func() {
		a.UnionWith(b)
		_ = a.Count()
		scratch = b.AppendDiff(a, scratch[:0])
	})
	if allocs != 0 {
		t.Fatalf("merge/popcount path allocates %.1f/op, want 0", allocs)
	}
}

// TestForEachDiffNoEscape pins that the absorb-style diff iteration with a
// capturing closure does not allocate (the closure must stay on the stack).
func TestForEachDiffNoEscape(t *testing.T) {
	a, b := New(512), New(512)
	for i := 0; i < 512; i += 2 {
		a.Add(i)
	}
	b.Add(100)
	sum := 0
	now := 7
	allocs := testing.AllocsPerRun(1000, func() {
		a.ForEachDiff(b, func(i int) bool {
			sum += i + now
			return true
		})
	})
	if allocs != 0 {
		t.Fatalf("ForEachDiff closure allocates %.1f/op, want 0", allocs)
	}
}
