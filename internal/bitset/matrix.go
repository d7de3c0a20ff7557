package bitset

import "math/bits"

// Matrix is an n×n bit matrix with copy-on-write snapshots, used as the
// gossip informed-list I(p): row q holds the set of rumors known to have
// been sent to process q. Rows are stored contiguously so row operations
// (union with a rumor set, subset tests) are word-parallel.
// Like Set, a Matrix is unpooled (legacy sticky `shared` flag, garbage
// collected) or pooled (refcounted aliasing, storage recycled via Release).
// The informed-list matrix is the simulator's largest recurring allocation
// — Θ(n²) bits snapshotted into every ears/sears payload — so the pooled
// mode is what makes large-n runs feasible.
type Matrix struct {
	n      int
	stride int // words per row
	words  []uint64
	shared bool   // legacy copy-on-write flag (unpooled mode)
	ref    *share // alias refcount (pooled mode); nil = sole referent
	pool   *Pool  // nil = unpooled
}

// NewMatrix returns an all-zero n×n bit matrix.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		n = 0
	}
	stride := wordsFor(n)
	return &Matrix{n: n, stride: stride, words: make([]uint64, n*stride)}
}

// Universe returns the dimension n.
func (m *Matrix) Universe() int { return m.n }

func (m *Matrix) ensureOwned() {
	if m.pool != nil {
		if m.ref == nil {
			return
		}
		if m.ref.count > 1 {
			w := m.pool.getMatWords()
			copy(w, m.words)
			m.ref.count--
			m.words, m.ref = w, nil
			return
		}
		m.pool.putShare(m.ref)
		m.ref = nil
		return
	}
	if m.shared {
		w := make([]uint64, len(m.words))
		copy(w, m.words)
		m.words = w
		m.shared = false
	}
}

// Snapshot returns a logically immutable alias of m; the first mutation of
// either side copies the words (copy-on-write). Snapshots of a pooled
// matrix are pooled and must be released exactly once (see Set.Snapshot).
func (m *Matrix) Snapshot() *Matrix {
	if m.pool != nil {
		if m.ref == nil {
			m.ref = m.pool.getShare()
			m.ref.count = 1
		}
		m.ref.count++
		snap := m.pool.getMat()
		snap.n, snap.stride, snap.words, snap.ref = m.n, m.stride, m.words, m.ref
		return snap
	}
	m.shared = true
	return &Matrix{n: m.n, stride: m.stride, words: m.words, shared: true}
}

// Release returns a pooled matrix's storage to its pool (no-op when
// unpooled). Same contract as Set.Release: at most once, never use after.
func (m *Matrix) Release() {
	p := m.pool
	if p == nil {
		return
	}
	if m.ref != nil {
		if m.ref.count--; m.ref.count == 0 {
			p.putMatWords(m.words)
			p.putShare(m.ref)
		}
	} else if m.words != nil {
		p.putMatWords(m.words)
	}
	p.putMat(m)
}

// Clone returns an independent deep copy.
func (m *Matrix) Clone() *Matrix {
	w := make([]uint64, len(m.words))
	copy(w, m.words)
	return &Matrix{n: m.n, stride: m.stride, words: w}
}

// Test reports whether bit (row, col) is set.
func (m *Matrix) Test(row, col int) bool {
	if row < 0 || row >= m.n || col < 0 || col >= m.n {
		return false
	}
	w := m.words[row*m.stride+col/wordBits]
	return w&(1<<(uint(col)%wordBits)) != 0
}

// Set sets bit (row, col).
func (m *Matrix) Set(row, col int) {
	if row < 0 || row >= m.n || col < 0 || col >= m.n {
		return
	}
	m.ensureOwned()
	m.words[row*m.stride+col/wordBits] |= 1 << (uint(col) % wordBits)
}

// UnionWith ORs every bit of other into m. Dimensions must match; a nil or
// mismatched other is ignored.
func (m *Matrix) UnionWith(other *Matrix) {
	if other == nil || other.n != m.n {
		return
	}
	m.ensureOwned()
	for i := range m.words {
		m.words[i] |= other.words[i]
	}
}

// RowUnionSet ORs the bits of set into the given row. Used by gossip: after
// sending all rumors V to process q, record (r, q) for every r ∈ V, i.e.
// row q ∪= V.
func (m *Matrix) RowUnionSet(row int, set *Set) {
	if row < 0 || row >= m.n || set == nil {
		return
	}
	m.ensureOwned()
	base := row * m.stride
	k := m.stride
	if len(set.words) < k {
		k = len(set.words)
	}
	for i := 0; i < k; i++ {
		m.words[base+i] |= set.words[i]
	}
}

// RowContainsSet reports whether row `row` is a superset of set, i.e.
// whether every rumor in set is known to have been sent to process row.
func (m *Matrix) RowContainsSet(row int, set *Set) bool {
	if set == nil {
		return true
	}
	if row < 0 || row >= m.n {
		return set.Empty()
	}
	base := row * m.stride
	for i, w := range set.words {
		if i >= m.stride {
			if w != 0 {
				return false
			}
			continue
		}
		if w&^m.words[base+i] != 0 {
			return false
		}
	}
	return true
}

// Count returns the total number of set bits.
func (m *Matrix) Count() int {
	c := 0
	for _, w := range m.words {
		c += bits.OnesCount64(w)
	}
	return c
}
