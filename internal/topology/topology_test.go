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

// TestCompleteSemantics: the complete graph is the nil Graph, and a
// nil-graph Sampler keeps the paper's clique semantics — the sampling
// universe is all of [n], self included (Figure 2), and Each visits every
// other vertex in ascending order, self excluded.
func TestCompleteSemantics(t *testing.T) {
	const n, self = 17, 5
	s := NewSampler(self, n, nil)
	if s.Degree() != n {
		t.Fatalf("Degree = %d, want %d", s.Degree(), n)
	}
	var each []int
	s.Each(func(q int) bool { each = append(each, q); return true })
	if len(each) != n-1 {
		t.Fatalf("Each visited %d, want %d", len(each), n-1)
	}
	want := 0
	for _, q := range each {
		if want == self {
			want++
		}
		if q != want {
			t.Fatalf("Each visited %v, want 0..%d ascending without %d", each, n-1, self)
		}
		want++
	}
}

// TestSamplerLegacyEquivalence: a nil-graph Sampler draws the legacy
// streams — One is bit-identical to rng.Intn and KInto to rng.Sample over
// [n] — the property that makes the default and Topology:"complete"
// reproduce pre-topology runs exactly.
func TestSamplerLegacyEquivalence(t *testing.T) {
	const n = 23
	s := NewSampler(7, n, nil)
	r1, r2 := rng.New(5), rng.New(5)
	for i := 0; i < 100; i++ {
		q, ok := s.One(r1)
		if !ok || q != r2.Intn(n) {
			t.Fatal("One diverges from the legacy rng.Intn stream")
		}
	}
	ks, ws := s.KInto(nil, 6, r1), r2.Sample(n, 6)
	if len(ks) != len(ws) {
		t.Fatalf("KInto drew %d targets, rng.Sample %d", len(ks), len(ws))
	}
	for i := range ks {
		if ks[i] != ws[i] {
			t.Fatal("KInto diverges from the legacy rng.Sample stream")
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

// TestBuildErrors: unknown families, bad parameters and the complete graph
// (which is the nil graph, not a built one) are rejected.
func TestBuildErrors(t *testing.T) {
	if _, err := Build(Spec{Family: "moebius", N: 8}); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := Build(Spec{Family: FamilyErdosRenyi, N: 8, Param: 1.5}); err == nil {
		t.Fatal("erdos-renyi p > 1 accepted")
	}
	if _, err := Build(Spec{Family: FamilyRing, N: 0}); err == nil {
		t.Fatal("N = 0 accepted")
	}
	for _, family := range []string{FamilyComplete, ""} {
		if g, err := Build(Spec{Family: family, N: 8}); err == nil {
			t.Fatalf("family %q built %v; the complete graph is the nil graph", family, g)
		}
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
