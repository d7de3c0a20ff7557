package topology

import (
	"testing"

	"repro/internal/rng"
)

// specsUnderTest enumerates every family across its documented parameter
// range at several sizes, including awkward ones (tiny, prime, power of
// two).
func specsUnderTest() []Spec {
	var specs []Spec
	ns := []int{2, 3, 5, 16, 64, 257, 1000}
	for _, n := range ns {
		specs = append(specs,
			Spec{Family: FamilyRing, N: n, Seed: 1},
			Spec{Family: FamilyTorus, N: n, Seed: 1},
			Spec{Family: FamilyRandomRegular, N: n, Seed: 1},
			Spec{Family: FamilyRandomRegular, N: n, Param: 4, Seed: 1},
			Spec{Family: FamilyErdosRenyi, N: n, Seed: 1},
			Spec{Family: FamilyErdosRenyi, N: n, Param: 0.02, Seed: 1}, // sub-threshold: repair must reconnect
			Spec{Family: FamilyWattsStrogatz, N: n, Seed: 1},
			Spec{Family: FamilyWattsStrogatz, N: n, Param: 4, Param2: 0.5, Seed: 1},
			Spec{Family: FamilyBarabasiAlbert, N: n, Seed: 1},
			Spec{Family: FamilyBarabasiAlbert, N: n, Param: 2, Seed: 1},
		)
	}
	return specs
}

func buildCSR(t *testing.T, s Spec) *CSR {
	t.Helper()
	g, err := Build(s)
	if err != nil {
		t.Fatalf("Build(%+v): %v", s, err)
	}
	c, ok := g.(*CSR)
	if !ok {
		t.Fatalf("Build(%+v) returned %T, want *CSR", s, g)
	}
	return c
}

// TestGeneratorsConnected: every generated family is connected at every
// documented parameter range (via construction or repair).
func TestGeneratorsConnected(t *testing.T) {
	for _, s := range specsUnderTest() {
		g := buildCSR(t, s)
		if !connected(g) {
			t.Errorf("%s n=%d param=%v,%v: not connected (%d edges)",
				s.Family, s.N, s.Param, s.Param2, g.Edges())
		}
	}
}

// TestCSRInvariants: rows sorted strictly ascending (no duplicates), no
// self-loops, adjacency symmetric, degrees consistent with HasEdge.
func TestCSRInvariants(t *testing.T) {
	for _, s := range specsUnderTest() {
		g := buildCSR(t, s)
		n := g.N()
		if n != s.N {
			t.Fatalf("%s: N = %d, want %d", s.Family, n, s.N)
		}
		for v := 0; v < n; v++ {
			prev := -1
			g.Neighbors(v, func(q int) bool {
				if q == v {
					t.Errorf("%s n=%d: self-loop at %d", s.Family, s.N, v)
				}
				if q <= prev {
					t.Errorf("%s n=%d: row %d not strictly ascending (%d after %d)", s.Family, s.N, v, q, prev)
				}
				prev = q
				if !g.HasEdge(v, q) || !g.HasEdge(q, v) {
					t.Errorf("%s n=%d: edge (%d,%d) not symmetric under HasEdge", s.Family, s.N, v, q)
				}
				return true
			})
		}
	}
}

// TestDegreeBounds: documented per-family degree bounds hold.
func TestDegreeBounds(t *testing.T) {
	check := func(s Spec, lo, hi int) {
		t.Helper()
		g := buildCSR(t, s)
		for v := 0; v < g.N(); v++ {
			d := g.Degree(v)
			if d < lo || d > hi {
				t.Errorf("%s n=%d param=%v: degree(%d) = %d, want [%d, %d]",
					s.Family, s.N, s.Param, v, d, lo, hi)
			}
		}
	}
	// Ring: degree 2 (1 at n=2).
	check(Spec{Family: FamilyRing, N: 64, Seed: 1}, 2, 2)
	check(Spec{Family: FamilyRing, N: 2, Seed: 1}, 1, 1)
	// Torus: degree ≤ 4, ≥ 2 on a proper grid.
	check(Spec{Family: FamilyTorus, N: 64, Seed: 1}, 2, 4)
	// Random-regular(8): cycles overlap, so [2, 8].
	check(Spec{Family: FamilyRandomRegular, N: 256, Param: 8, Seed: 1}, 2, 8)
	// Watts-Strogatz(8): each vertex keeps its k/2 own lattice edges; the
	// far side can be rewired away, and rewiring toward it can add more.
	check(Spec{Family: FamilyWattsStrogatz, N: 256, Param: 8, Seed: 1}, 4, 256)
	// Barabási–Albert(4): attachment guarantees m, the hub can be large.
	check(Spec{Family: FamilyBarabasiAlbert, N: 256, Param: 4, Seed: 1}, 4, 256)
}

// TestSeedDeterminism: the same Spec yields an identical graph; a
// different seed yields a different one (for randomized families at sizes
// where collision is implausible).
func TestSeedDeterminism(t *testing.T) {
	for _, s := range specsUnderTest() {
		a, b := buildCSR(t, s), buildCSR(t, s)
		if len(a.adj) != len(b.adj) {
			t.Fatalf("%s n=%d: edge counts differ across identical specs", s.Family, s.N)
		}
		for i := range a.adj {
			if a.adj[i] != b.adj[i] {
				t.Fatalf("%s n=%d: adjacency differs across identical specs", s.Family, s.N)
			}
		}
	}
	s1 := Spec{Family: FamilyErdosRenyi, N: 256, Seed: 1}
	s2 := Spec{Family: FamilyErdosRenyi, N: 256, Seed: 2}
	a, b := buildCSR(t, s1), buildCSR(t, s2)
	same := len(a.adj) == len(b.adj)
	if same {
		for i := range a.adj {
			if a.adj[i] != b.adj[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("erdos-renyi: seeds 1 and 2 produced identical graphs")
	}
}

// TestCompleteSemantics: Complete preserves the paper's clique semantics —
// SampleNeighbor is uniform on [n] with self included (bit-identical to
// rng.Intn), SampleNeighbors mirrors rng.Sample, iteration excludes self,
// HasEdge is total.
func TestCompleteSemantics(t *testing.T) {
	const n = 17
	g := Complete(n)
	if g.Degree(3) != n {
		t.Fatalf("Degree = %d, want %d", g.Degree(3), n)
	}
	r1, r2 := rng.New(9), rng.New(9)
	for i := 0; i < 100; i++ {
		q, ok := g.SampleNeighbor(3, r1)
		if !ok || q != r2.Intn(n) {
			t.Fatal("SampleNeighbor diverges from legacy rng.Intn stream")
		}
	}
	ks := g.SampleNeighbors(3, 5, r1)
	ws := r2.Sample(n, 5)
	for i := range ks {
		if ks[i] != ws[i] {
			t.Fatal("SampleNeighbors diverges from legacy rng.Sample stream")
		}
	}
	count := 0
	g.Neighbors(5, func(q int) bool {
		if q == 5 {
			t.Fatal("Neighbors iterated self")
		}
		count++
		return true
	})
	if count != n-1 {
		t.Fatalf("Neighbors visited %d, want %d", count, n-1)
	}
	if !g.HasEdge(2, 2) || !g.HasEdge(0, 16) {
		t.Fatal("Complete.HasEdge must be total (self-sends deliverable)")
	}
}

// TestSamplerLegacyEquivalence: a nil-graph Sampler and a Complete-graph
// Sampler draw identical streams — the property that makes the default
// and Topology:"complete" reproduce pre-topology runs exactly.
func TestSamplerLegacyEquivalence(t *testing.T) {
	const n = 23
	nilS := NewSampler(7, n, nil)
	cmpS := NewSampler(7, n, Complete(n))
	r1, r2 := rng.New(5), rng.New(5)
	for i := 0; i < 50; i++ {
		a, okA := nilS.One(r1)
		b, okB := cmpS.One(r2)
		if a != b || okA != okB {
			t.Fatal("One diverges between nil and Complete samplers")
		}
	}
	ka, kb := nilS.KInto(nil, 6, r1), cmpS.KInto(nil, 6, r2)
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatal("KInto diverges between nil and Complete samplers")
		}
	}
	var ea, eb []int
	nilS.Each(func(q int) bool { ea = append(ea, q); return true })
	cmpS.Each(func(q int) bool { eb = append(eb, q); return true })
	if len(ea) != len(eb) {
		t.Fatal("Each visits different target sets")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("Each order diverges between nil and Complete samplers")
		}
	}
}

// TestSamplerOnGraph: samples and iteration stay inside the neighborhood.
func TestSamplerOnGraph(t *testing.T) {
	g := buildCSR(t, Spec{Family: FamilyRandomRegular, N: 64, Param: 6, Seed: 3})
	r := rng.New(11)
	for v := 0; v < g.N(); v += 7 {
		s := NewSampler(v, g.N(), g)
		for i := 0; i < 30; i++ {
			q, ok := s.One(r)
			if !ok || !g.HasEdge(v, q) {
				t.Fatalf("One(%d) = %d: not a neighbor", v, q)
			}
		}
		for _, q := range s.KInto(nil, 100, r) {
			if !g.HasEdge(v, q) {
				t.Fatalf("KInto(%d) yielded non-neighbor %d", v, q)
			}
		}
		if got := len(s.KInto(nil, 100, r)); got != g.Degree(v) {
			t.Fatalf("KInto over-asking returned %d targets, want degree %d", got, g.Degree(v))
		}
	}
}

// TestTorusRows: the rows parameter must divide n.
func TestTorusRows(t *testing.T) {
	if _, err := Build(Spec{Family: FamilyTorus, N: 10, Param: 3, Seed: 1}); err == nil {
		t.Fatal("torus with rows=3, n=10 should fail")
	}
	g := buildCSR(t, Spec{Family: FamilyTorus, N: 12, Param: 3, Seed: 1})
	if !connected(g) {
		t.Fatal("3×4 torus not connected")
	}
}

// TestBuildErrors: unknown families and bad parameters are rejected.
func TestBuildErrors(t *testing.T) {
	if _, err := Build(Spec{Family: "moebius", N: 8}); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := Build(Spec{Family: FamilyErdosRenyi, N: 8, Param: 1.5}); err == nil {
		t.Fatal("erdos-renyi p > 1 accepted")
	}
	if _, err := Build(Spec{Family: FamilyComplete, N: 0}); err == nil {
		t.Fatal("N = 0 accepted")
	}
}

// TestLargeSparseGraph: generation at N in the hundreds of thousands is
// feasible and the CSR stays compact (the skip-sampling path, not O(n²)).
func TestLargeSparseGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph generation")
	}
	const n = 200_000
	g := buildCSR(t, Spec{Family: FamilyErdosRenyi, N: n, Seed: 1})
	if !connected(g) {
		t.Fatal("large erdos-renyi not connected")
	}
	meanDeg := 2 * float64(g.Edges()) / float64(n)
	// p = 2 ln n / n ⇒ mean degree ≈ 2 ln n ≈ 24.4.
	if meanDeg < 20 || meanDeg > 29 {
		t.Fatalf("mean degree %.1f, want ≈ 24.4", meanDeg)
	}
}

// connected reports whether g is connected (true for N ≤ 1).
func connected(g *CSR) bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range g.adj[g.off[v]:g.off[v+1]] {
			if !seen[q] {
				seen[q] = true
				count++
				stack = append(stack, q)
			}
		}
	}
	return count == n
}
