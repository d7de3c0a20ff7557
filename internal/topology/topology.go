// Package topology models the communication graph a gossip execution runs
// over. The paper (and the original reproduction) hard-codes the complete
// graph: EARS picks its target "uniform on [n]" and the simulator delivers
// any process→process message. Related work studies exactly what changes
// off the clique — asynchronous push-pull rumor spreading on Erdős–Rényi
// random graphs (Panagiotou & Speidel), gossip over sparse smartphone
// peer-to-peer meshes (Newport, Weaver & Zheng) — so this package opens a
// topology axis for every protocol, adversary and experiment:
//
//   - Graph is the abstraction: vertex count, degree, neighbor iteration,
//     uniform neighbor sampling, edge membership.
//   - The complete graph is the nil Graph: the paper's clique, in which
//     sampling is uniform on [n], self included (Figure 2). It is the
//     default everywhere and reproduces pre-topology results bit for bit.
//   - Generated families (ring, torus, random-regular, erdos-renyi,
//     watts-strogatz, barabasi-albert) are backed by a compact CSR
//     adjacency sized for N in the hundreds of thousands, deterministic
//     in the seed, and repaired to be connected where the family does not
//     guarantee it.
//   - Sampler adapts a vertex's neighborhood — or the legacy [n] universe
//     when no graph is configured — for protocol target selection.
//
// Vertices are plain ints (0..N-1) so the package stays free of simulator
// dependencies; the sim and core layers convert to their ProcID type.
package topology

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Graph is a finite undirected communication graph over vertices 0..N-1.
// Implementations are immutable after construction and safe for concurrent
// readers.
type Graph interface {
	// Name returns the family name ("ring", "torus", ...).
	Name() string
	// N returns the number of vertices.
	N() int
	// Degree returns the number of v's neighbors, self excluded.
	Degree(v int) int
	// Neighbors calls fn for each potential target of v in ascending
	// order, self excluded, stopping early if fn returns false.
	Neighbors(v int, fn func(q int) bool)
	// SampleNeighbor draws one target uniformly from v's sampling
	// universe. ok is false when v has no targets (isolated vertex).
	SampleNeighbor(v int, r *rng.RNG) (q int, ok bool)
	// SampleNeighbors draws k distinct targets uniformly from v's
	// sampling universe, in random order; if k exceeds the universe it
	// returns a permutation of the whole universe.
	SampleNeighbors(v, k int, r *rng.RNG) []int
	// HasEdge reports whether a message from u to v is deliverable.
	HasEdge(u, v int) bool
	// Edges returns the number of undirected edges.
	Edges() int64
}

// Family names accepted by Build.
const (
	FamilyComplete       = "complete"
	FamilyRing           = "ring"
	FamilyTorus          = "torus"
	FamilyRandomRegular  = "random-regular"
	FamilyErdosRenyi     = "erdos-renyi"
	FamilyWattsStrogatz  = "watts-strogatz"
	FamilyBarabasiAlbert = "barabasi-albert"
)

// Families lists the graph families a run accepts. Build makes every one
// but complete, which is the nil graph.
func Families() []string {
	return []string{
		FamilyComplete, FamilyRing, FamilyTorus, FamilyRandomRegular,
		FamilyErdosRenyi, FamilyWattsStrogatz, FamilyBarabasiAlbert,
	}
}

// Spec describes a graph to build. Param and Param2 are family-specific
// knobs; zero selects the documented default:
//
//	complete         — the nil graph; Build rejects it
//	ring             — no parameters
//	torus            — Param = row count (default: largest divisor of N
//	                   at most √N; 1, i.e. a ring, when N is prime)
//	random-regular   — Param = degree d (default 8; rounded up to even,
//	                   capped at N−1). Built as d/2 seeded Hamiltonian
//	                   cycles, so the graph is always connected.
//	erdos-renyi      — Param = edge probability p (default 2·ln N / N,
//	                   twice the connectivity threshold), followed by
//	                   connectivity repair.
//	watts-strogatz   — Param = lattice degree k (default 8; even, capped),
//	                   Param2 = rewiring probability β (default 0.1),
//	                   followed by connectivity repair.
//	barabasi-albert  — Param = attachment count m (default 4).
type Spec struct {
	// Family is one of the Family* names.
	Family string
	// N is the number of vertices.
	N int
	// Param, Param2 are the family parameters described above.
	Param, Param2 float64
	// Seed makes generation deterministic; the stream is forked with a
	// package-private tag so it is independent of protocol and adversary
	// randomness derived from the same run seed.
	Seed int64
}

// Build constructs the graph a Spec describes. Generated families are
// deterministic in the Spec: the same Spec always yields the same graph.
func Build(s Spec) (Graph, error) {
	if s.N < 1 {
		return nil, fmt.Errorf("topology: N = %d, need N >= 1", s.N)
	}
	r := rng.New(s.Seed).Fork(0x1090109e) // topology-private stream tag
	switch s.Family {
	case FamilyComplete, "":
		return nil, fmt.Errorf("topology: the complete graph is the nil graph; Build makes only generated families")
	case FamilyRing:
		return buildRing(s.N), nil
	case FamilyTorus:
		return buildTorus(s.N, int(s.Param))
	case FamilyRandomRegular:
		return buildRandomRegular(s.N, int(s.Param), r)
	case FamilyErdosRenyi:
		return buildErdosRenyi(s.N, s.Param, r)
	case FamilyWattsStrogatz:
		return buildWattsStrogatz(s.N, int(s.Param), s.Param2, r)
	case FamilyBarabasiAlbert:
		return buildBarabasiAlbert(s.N, int(s.Param), r)
	default:
		return nil, fmt.Errorf("topology: unknown family %q (have %v)", s.Family, Families())
	}
}

// defaultERProb is the erdos-renyi default edge probability: twice the
// ln N / N connectivity threshold, clamped to (0, 1].
func defaultERProb(n int) float64 {
	if n < 2 {
		return 1
	}
	p := 2 * math.Log(float64(n)) / float64(n)
	if p > 1 {
		p = 1
	}
	return p
}

// Sampler draws communication targets for one vertex. A zero graph (nil)
// selects the legacy clique semantics over [n] directly, guaranteeing the
// exact random-stream draws of the pre-topology protocols; a non-nil graph
// delegates to it. Sampler is a small value type: copy freely.
type Sampler struct {
	self int
	n    int
	g    Graph
}

// NewSampler builds a sampler for vertex self in a system of n processes
// communicating over g (nil = unrestricted clique).
func NewSampler(self, n int, g Graph) Sampler {
	return Sampler{self: self, n: n, g: g}
}

// Degree returns the size of the sampling universe (n for the clique).
func (s Sampler) Degree() int {
	if s.g == nil {
		return s.n
	}
	return s.g.Degree(s.self)
}

// One draws one uniform target; ok is false if the vertex is isolated.
func (s Sampler) One(r *rng.RNG) (int, bool) {
	if s.g == nil {
		if s.n < 1 {
			return 0, false
		}
		return r.Intn(s.n), true
	}
	return s.g.SampleNeighbor(s.self, r)
}

// KInto draws k distinct uniform targets (all of them, permuted, if k
// exceeds the universe) into dst, reusing its capacity: zero allocation
// once dst has grown to the fan-out. The nil clique and every CSR-backed
// family take the zero-allocation path; a custom Graph implementation
// falls back to its allocating SampleNeighbors, keeping the interface
// unchanged.
func (s Sampler) KInto(dst []int, k int, r *rng.RNG) []int {
	if s.g == nil {
		return r.SampleInto(dst, s.n, k)
	}
	if g, ok := s.g.(*CSR); ok {
		return g.SampleNeighborsInto(dst, s.self, k, r)
	}
	return append(dst[:0], s.g.SampleNeighbors(s.self, k, r)...)
}

// Each iterates the potential targets (self excluded) in ascending order,
// stopping early when fn returns false.
func (s Sampler) Each(fn func(q int) bool) {
	if s.g == nil {
		for q := 0; q < s.n; q++ {
			if q == s.self {
				continue
			}
			if !fn(q) {
				return
			}
		}
		return
	}
	s.g.Neighbors(s.self, fn)
}
