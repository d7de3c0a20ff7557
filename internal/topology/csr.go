package topology

import (
	"sort"

	"repro/internal/rng"
)

// CSR is a compact adjacency representation of an undirected graph:
// neighbor lists of all vertices concatenated into one int32 slice with an
// offsets index. Memory is O(N + E) — 4 bytes per directed edge plus 8 per
// vertex — which keeps graphs with N in the hundreds of thousands and tens
// of millions of edges in a few hundred MB. Rows are sorted ascending and
// self-loop free, so HasEdge is a binary search and iteration is ordered.
type CSR struct {
	name string
	off  []int64 // len N+1; row v is adj[off[v]:off[v+1]]
	adj  []int32
}

var _ Graph = (*CSR)(nil)

// edge is an undirected edge under construction.
type edge struct{ u, v int32 }

// newCSR builds a CSR from an undirected edge list. Self-loops and
// duplicate edges (in either orientation) are dropped.
func newCSR(name string, n int, edges []edge) *CSR {
	// Normalize to u < v, encode into sortable keys, dedupe.
	keys := make([]uint64, 0, len(edges))
	for _, e := range edges {
		u, v := e.u, e.v
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		keys = append(keys, uint64(u)<<32|uint64(v))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	uniq := keys[:0]
	var prev uint64
	for i, k := range keys {
		if i > 0 && k == prev {
			continue
		}
		uniq = append(uniq, k)
		prev = k
	}

	// Count degrees, prefix-sum, fill both directions, sort rows.
	g := &CSR{name: name, off: make([]int64, n+1), adj: make([]int32, 2*len(uniq))}
	for _, k := range uniq {
		g.off[int32(k>>32)+1]++
		g.off[int32(k)+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	cursor := make([]int64, n)
	copy(cursor, g.off[:n])
	// Filling in global key order leaves every row already sorted: row w
	// receives its smaller neighbors first (as second components of the
	// u<w blocks, ascending in u) and then its larger neighbors (the u=w
	// block, ascending in v) — no per-row sort needed.
	for _, k := range uniq {
		u, v := int32(k>>32), int32(k)
		g.adj[cursor[u]] = v
		cursor[u]++
		g.adj[cursor[v]] = u
		cursor[v]++
	}
	return g
}

// Name implements Graph.
func (g *CSR) Name() string { return g.name }

// N implements Graph.
func (g *CSR) N() int { return len(g.off) - 1 }

// Degree implements Graph.
func (g *CSR) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors implements Graph.
func (g *CSR) Neighbors(v int, fn func(q int) bool) {
	for _, q := range g.adj[g.off[v]:g.off[v+1]] {
		if !fn(int(q)) {
			return
		}
	}
}

// SampleNeighbor implements Graph.
func (g *CSR) SampleNeighbor(v int, r *rng.RNG) (int, bool) {
	deg := int(g.off[v+1] - g.off[v])
	if deg == 0 {
		return 0, false
	}
	return int(g.adj[g.off[v]+int64(r.Intn(deg))]), true
}

// SampleNeighbors implements Graph.
func (g *CSR) SampleNeighbors(v, k int, r *rng.RNG) []int {
	row := g.adj[g.off[v]:g.off[v+1]]
	idx := r.Sample(len(row), k)
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = int(row[j])
	}
	return out
}

// SampleNeighborsInto is SampleNeighbors writing into dst (reusing its
// capacity): identical draws and results, no per-call allocation once the
// scratch buffer has grown to the fan-out. Sampling row indices is O(k),
// so a pick is O(1) per target with the CSR row as the only indirection.
func (g *CSR) SampleNeighborsInto(dst []int, v, k int, r *rng.RNG) []int {
	row := g.adj[g.off[v]:g.off[v+1]]
	dst = r.SampleInto(dst, len(row), k)
	for i, j := range dst {
		dst[i] = int(row[j])
	}
	return dst
}

// HasEdge implements Graph: binary search in u's sorted row. Self-loops
// never exist in a CSR, so HasEdge(v, v) is false — protocols running on
// explicit topologies address real neighbors only.
func (g *CSR) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return false
	}
	row := g.adj[g.off[u]:g.off[u+1]]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
}

// Edges implements Graph.
func (g *CSR) Edges() int64 { return int64(len(g.adj)) / 2 }

// repairConnectivity links every component of the edge list to the
// component of vertex 0 with one extra edge between seeded-random member
// vertices, returning the extended list.
// Generators whose family does not guarantee connectivity (erdos-renyi,
// watts-strogatz) call this so sparse parameterizations still yield graphs
// every gossip protocol can complete on.
func repairConnectivity(n int, edges []edge, r *rng.RNG) []edge {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, e := range edges {
		union(e.u, e.v)
	}
	// Group members by root; component order follows vertex order, so the
	// repair is deterministic given the edge list and stream.
	members := make(map[int32][]int32)
	var roots []int32
	for v := int32(0); v < int32(n); v++ {
		rt := find(v)
		if _, ok := members[rt]; !ok {
			roots = append(roots, rt)
		}
		members[rt] = append(members[rt], v)
	}
	base := members[roots[0]]
	for _, rt := range roots[1:] {
		comp := members[rt]
		u := comp[r.Intn(len(comp))]
		v := base[r.Intn(len(base))]
		edges = append(edges, edge{u, v})
	}
	return edges
}
