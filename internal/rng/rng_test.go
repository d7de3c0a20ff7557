package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(7)
	b := New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := New(8)
	same := 0
	a = New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestCloneProducesSameFuture(t *testing.T) {
	a := New(99)
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	b := a.Clone()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("clone diverged from original")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	root := New(1)
	c1 := root.Fork(1)
	c2 := root.Fork(2)
	c1again := root.Fork(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Fork with same id not reproducible")
	}
	// Fork must not advance the parent.
	p1 := New(1)
	p2 := New(1)
	p1.Fork(55)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Fork advanced the parent state")
	}
	// Streams should differ.
	equalCount := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			equalCount++
		}
	}
	if equalCount > 2 {
		t.Fatalf("forked streams collided %d/1000 times", equalCount)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n = 10
	const trials = 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestBool(t *testing.T) {
	r := New(13)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %v", p)
	}
}

func TestPerm(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSample(t *testing.T) {
	r := New(19)
	for trial := 0; trial < 100; trial++ {
		s := r.Sample(50, 10)
		if len(s) != 10 {
			t.Fatalf("Sample(50,10) length %d", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 50 || seen[v] {
				t.Fatalf("Sample invalid: %v", s)
			}
			seen[v] = true
		}
	}
	if got := r.Sample(5, 10); len(got) != 5 {
		t.Fatalf("Sample(5,10) should return full permutation, got %v", got)
	}
	if got := r.Sample(5, 0); got != nil {
		t.Fatalf("Sample(5,0) = %v, want nil", got)
	}
	// Uniform coverage: each element of [0,20) should be picked ~equally.
	counts := make([]int, 20)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(20, 5) {
			counts[v]++
		}
	}
	want := float64(trials) * 5 / 20
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("Sample element %d count %d, want ~%f", i, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkSample1024of4096(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Sample(4096, 1024)
	}
}
