package topology

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// buildRing returns the cycle graph C_n (a path for n = 2, a single vertex
// for n = 1). Connected by construction; degree 2 for n ≥ 3.
func buildRing(n int) *CSR {
	edges := make([]edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, edge{int32(v), int32((v + 1) % n)})
	}
	return newCSR(FamilyRing, n, edges)
}

// buildTorus returns a rows×cols wrap-around grid with rows·cols = n.
// rows = 0 selects the largest divisor of n at most √n, which degenerates
// to a ring when n is prime. Connected by construction; degree ≤ 4.
func buildTorus(n, rows int) (*CSR, error) {
	if rows == 0 {
		rows = 1
		for d := int(math.Sqrt(float64(n))); d >= 1; d-- {
			if n%d == 0 {
				rows = d
				break
			}
		}
	}
	if rows < 1 || n%rows != 0 {
		return nil, fmt.Errorf("topology: torus rows = %d does not divide N = %d", rows, n)
	}
	cols := n / rows
	var edges []edge
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			v := int32(row*cols + col)
			if cols > 1 {
				edges = append(edges, edge{v, int32(row*cols + (col+1)%cols)})
			}
			if rows > 1 {
				edges = append(edges, edge{v, int32(((row+1)%rows)*cols + col)})
			}
		}
	}
	return newCSR(FamilyTorus, n, edges), nil
}

// buildRandomRegular returns a near-d-regular graph as the union of d/2
// seeded random Hamiltonian cycles. The first cycle alone makes the graph
// connected, so no repair is needed; overlapping cycle edges merge, so
// degrees lie in [2, d]. d defaults to 8, is rounded up to even, and is
// capped at n−1.
func buildRandomRegular(n, d int, r *rng.RNG) (*CSR, error) {
	if d == 0 {
		d = 8
	}
	if d < 0 {
		return nil, fmt.Errorf("topology: random-regular degree = %d, need >= 1", d)
	}
	if d%2 == 1 {
		d++ // rounded up to even, as documented (d=1 becomes a ring-like 2)
	}
	if d > n-1 {
		d = n - 1
	}
	layers := d / 2
	if layers < 1 {
		layers = 1
	}
	edges := make([]edge, 0, layers*n)
	for l := 0; l < layers; l++ {
		perm := r.Perm(n)
		for i := 0; i < n; i++ {
			edges = append(edges, edge{int32(perm[i]), int32(perm[(i+1)%n])})
		}
	}
	return newCSR(FamilyRandomRegular, n, edges), nil
}

// buildErdosRenyi returns G(n, p) with connectivity repair. p defaults to
// 2·ln n / n — twice the connectivity threshold, so repair is rarely
// needed at that setting. Edge generation uses geometric skip sampling
// (Batagelj–Brandes), so the cost is O(E), not O(n²), and graphs with n in
// the hundreds of thousands stay cheap at sparse p.
func buildErdosRenyi(n int, p float64, r *rng.RNG) (*CSR, error) {
	if p == 0 {
		p = defaultERProb(n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("topology: erdos-renyi p = %v, need 0 <= p <= 1", p)
	}
	var edges []edge
	switch {
	case p >= 1:
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, edge{int32(u), int32(v)})
			}
		}
	case p > 0:
		lq := math.Log(1 - p)
		v, w := 1, -1
		for v < n {
			lr := math.Log(1 - r.Float64())
			skip := lr / lq
			if skip > float64(n)*float64(n) {
				break // beyond the last pair; avoids int-conversion overflow
			}
			w += 1 + int(skip)
			for w >= v && v < n {
				w -= v
				v++
			}
			if v < n {
				edges = append(edges, edge{int32(w), int32(v)})
			}
		}
	}
	return newCSR(FamilyErdosRenyi, n, repairConnectivity(n, edges, r)), nil
}

// buildWattsStrogatz returns a small-world graph: a ring lattice where
// each vertex connects to its k/2 nearest neighbors on each side, with
// every lattice edge's far endpoint rewired to a uniform random vertex
// with probability beta, then connectivity repair. k defaults to 8 (even,
// capped at n−1); beta defaults to 0.1.
func buildWattsStrogatz(n, k int, beta float64, r *rng.RNG) (*CSR, error) {
	if k == 0 {
		k = 8
	}
	if k < 2 {
		return nil, fmt.Errorf("topology: watts-strogatz k = %d, need >= 2", k)
	}
	if k%2 == 1 {
		k++
	}
	if k > n-1 {
		k = n - 1
	}
	if beta == 0 {
		beta = 0.1
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("topology: watts-strogatz beta = %v, need 0 <= beta <= 1", beta)
	}
	half := k / 2
	if half < 1 {
		half = 1
	}
	present := make(map[uint64]bool, n*half)
	key := func(u, v int) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	edges := make([]edge, 0, n*half)
	addEdge := func(u, v int) bool {
		if u == v || present[key(u, v)] {
			return false
		}
		present[key(u, v)] = true
		edges = append(edges, edge{int32(u), int32(v)})
		return true
	}
	for v := 0; v < n; v++ {
		for j := 1; j <= half; j++ {
			addEdge(v, (v+j)%n)
		}
	}
	// Rewire pass: each lattice edge (v, v+j) keeps v and, with
	// probability beta, trades its lattice endpoint for a uniform one.
	for i := range edges {
		if !r.Bool(beta) {
			continue
		}
		u := int(edges[i].u)
		for attempt := 0; attempt < 16; attempt++ {
			w := r.Intn(n)
			if w == u || present[key(u, w)] {
				continue
			}
			delete(present, key(u, int(edges[i].v)))
			present[key(u, w)] = true
			edges[i].v = int32(w)
			break
		}
	}
	return newCSR(FamilyWattsStrogatz, n, repairConnectivity(n, edges, r)), nil
}

// buildBarabasiAlbert returns a preferential-attachment scale-free graph:
// an initial (m+1)-clique, then each new vertex attaches to m distinct
// existing vertices chosen proportionally to their degree (via the
// repeated-endpoint list). Connected by construction; minimum degree m.
// m defaults to 4 and is capped at n−1.
func buildBarabasiAlbert(n, m int, r *rng.RNG) (*CSR, error) {
	if m == 0 {
		m = 4
	}
	if m < 1 {
		return nil, fmt.Errorf("topology: barabasi-albert m = %d, need >= 1", m)
	}
	if m > n-1 {
		m = n - 1
	}
	if m < 1 {
		m = 1 // n == 1: no edges below anyway
	}
	m0 := m + 1
	if m0 > n {
		m0 = n
	}
	var edges []edge
	// repeated holds every edge endpoint once per incidence; sampling it
	// uniformly is sampling vertices proportionally to degree.
	repeated := make([]int32, 0, 2*m*n)
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			edges = append(edges, edge{int32(u), int32(v)})
			repeated = append(repeated, int32(u), int32(v))
		}
	}
	chosen := make(map[int32]bool, m)
	targets := make([]int32, 0, m)
	for v := m0; v < n; v++ {
		for k := range chosen {
			delete(chosen, k)
		}
		targets = targets[:0]
		// Endpoints of v's own edges join the sampling list only after all
		// m targets are chosen: sampling v itself would create a dropped
		// self-loop and silently lower its degree below m. Targets are
		// appended in selection order to keep generation deterministic.
		for len(chosen) < m {
			t := repeated[r.Intn(len(repeated))]
			if chosen[t] {
				continue
			}
			chosen[t] = true
			targets = append(targets, t)
			edges = append(edges, edge{int32(v), t})
		}
		for _, t := range targets {
			repeated = append(repeated, int32(v), t)
		}
	}
	return newCSR(FamilyBarabasiAlbert, n, edges), nil
}
