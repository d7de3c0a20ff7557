package bitset

import (
	"math"
	"math/bits"
	"slices"
)

// Matrix is an n×n bit matrix with copy-on-write snapshots, used as the
// gossip informed-list I(p): row q holds the set of rumors known to have
// been sent to process q. Rows are stored contiguously so row operations
// (union with a rumor set, subset tests) are word-parallel.
// Like Set, a Matrix is unpooled (legacy sticky `shared` flag, garbage
// collected) or pooled (refcounted aliasing, storage recycled via Release).
// The informed-list matrix is the simulator's largest recurring allocation
// — Θ(n²) bits snapshotted into every ears/sears payload — so the pooled
// mode is what makes large-n runs feasible.
// Unions report whether they changed anything and defer the copy-on-write
// copy to the first word that gains a bit, so a union that brings no news
// reads the other matrix and writes nothing.
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

// UnionWith ORs every bit of other into m and reports whether m changed.
// Dimensions must match; a nil or mismatched other is ignored. A snapshot
// alias of m is copied only when some word gains a bit, so a union that
// brings nothing new leaves m's storage shared.
func (m *Matrix) UnionWith(other *Matrix) bool {
	if other == nil || other.n != m.n {
		return false
	}
	return m.orWords(other, 0, len(m.words))
}

// UnionRows ORs the given rows of other into m and reports whether m
// changed; like UnionWith, it copies m's storage only on the first change.
func (m *Matrix) UnionRows(other *Matrix, rows *Set) bool {
	if other == nil || other.n != m.n || rows == nil {
		return false
	}
	changed := false
	rows.ForEach(func(q int) bool {
		if q < m.n && m.orWords(other, q*m.stride, (q+1)*m.stride) {
			changed = true
		}
		return true
	})
	return changed
}

// orWords ORs other's words [lo, hi) into m. It scans read-only up to the
// first word that gains a bit, takes ownership of m's storage there, and
// ORs the rest.
func (m *Matrix) orWords(other *Matrix, lo, hi int) bool {
	src := other.words[lo:hi]
	dst := m.words[lo:hi]
	i := 0
	for ; i < len(src); i++ {
		if src[i]&^dst[i] != 0 {
			break
		}
	}
	if i == len(src) {
		return false
	}
	m.ensureOwned()
	dst = m.words[lo:hi]
	for ; i < len(src); i++ {
		dst[i] |= src[i]
	}
	return true
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
func (m *Matrix) Count() int { return m.CountUpTo(math.MaxInt) }

// CountUpTo returns the number of set bits when it is below limit, and
// otherwise some value ≥ limit: the scan stops once limit bits are seen.
//
// CountUpTo stays out of line so that its loop, the one popcount loop of
// Matrix, keeps one placement. Inlined, the loop moved with every size
// change in the code linked before its caller, and a 32-byte shift of that
// code made ears_clique 7 % slower.
//
//go:noinline
func (m *Matrix) CountUpTo(limit int) int {
	c := 0
	for _, w := range m.words {
		c += bits.OnesCount64(w)
		if c >= limit {
			break
		}
	}
	return c
}

// Equal reports whether m and o have the same dimension and the same bits.
func (m *Matrix) Equal(o *Matrix) bool {
	return m.n == o.n && slices.Equal(m.words, o.words)
}
