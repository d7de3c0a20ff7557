// Package bitset provides dense bit sets over a fixed universe [0, n) and a
// two-dimensional bit matrix used for gossip informed-lists.
//
// Both types support copy-on-write snapshots: Snapshot returns an alias that
// shares the underlying words with the original; the first mutation of either
// side copies the words. This makes it cheap for a simulated process to send
// the same (logically immutable) state in many messages per step, which is
// essential for the message-heavy protocols in this repository (sears sends
// Θ(n^ε log n) identical payloads per local step, tears broadcasts to Θ(√n
// log n) targets).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// wordsFor returns the number of 64-bit words needed to hold n bits.
func wordsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + wordBits - 1) / wordBits
}

// Set is a dense bit set over the universe [0, n). The zero value is an
// empty set over an empty universe; use New to create a set with capacity.
//
// A set is either unpooled (pool == nil: snapshots use the legacy sticky
// `shared` flag and all storage is garbage collected) or pooled
// (pool != nil: snapshot sharing is tracked by a refcounted share record,
// storage is recycled through the pool via Release, and a mutation that
// finds itself the last referent reclaims sole ownership without copying).
// Both modes have identical observable semantics; pooling only changes
// where the bytes come from and where they go.
type Set struct {
	n      int
	words  []uint64
	shared bool   // legacy copy-on-write flag (unpooled mode)
	ref    *share // alias refcount (pooled mode); nil = sole referent
	pool   *Pool  // nil = unpooled
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{n: n, words: make([]uint64, wordsFor(n))}
}

// Universe returns the size n of the universe [0, n).
func (s *Set) Universe() int { return s.n }

// ensureOwned copies the word storage if it may be shared with a snapshot.
func (s *Set) ensureOwned() {
	if s.pool != nil {
		if s.ref == nil {
			return // pooled and sole referent: mutate in place
		}
		if s.ref.count > 1 {
			w := s.pool.getWords()
			copy(w, s.words)
			s.ref.count--
			s.words, s.ref = w, nil
			return
		}
		// Every snapshot has been released; reclaim sole ownership.
		s.pool.putShare(s.ref)
		s.ref = nil
		return
	}
	if s.shared {
		w := make([]uint64, len(s.words))
		copy(w, s.words)
		s.words = w
		s.shared = false
	}
}

// Snapshot returns a logically immutable alias of s. The alias shares
// storage with s until either side mutates, at which point the mutating side
// copies. Snapshots are safe to read concurrently with mutation of the
// original only if the mutation happens in the same goroutine or is
// externally synchronized; the simulator is single-goroutine per world.
//
// A snapshot of a pooled set is itself pooled: its header comes from the
// pool and it must be released with Release exactly once when its last
// reader is done (the simulator does this when the carrying message is
// consumed). A snapshot of an unpooled set is garbage collected as before.
func (s *Set) Snapshot() *Set {
	if s.pool != nil {
		if s.ref == nil {
			s.ref = s.pool.getShare()
			s.ref.count = 1 // s itself
		}
		s.ref.count++
		snap := s.pool.getSet()
		snap.n, snap.words, snap.ref = s.n, s.words, s.ref
		return snap
	}
	s.shared = true
	return &Set{n: s.n, words: s.words, shared: true}
}

// Release returns a pooled set's storage to its pool: the header always,
// the word buffer once no other alias references it. Calling Release on an
// unpooled set is a no-op. The set must not be used after Release, and
// Release must be called at most once per pooled instance — the simulator
// guarantees both by releasing only through payload refcounts.
func (s *Set) Release() {
	p := s.pool
	if p == nil {
		return
	}
	if s.ref != nil {
		if s.ref.count--; s.ref.count == 0 {
			p.putWords(s.words)
			p.putShare(s.ref)
		}
	} else if s.words != nil {
		p.putWords(s.words)
	}
	p.putSet(s)
}

// Clone returns an independent deep copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{n: s.n, words: w}
}

// Test reports whether bit i is set. Bits outside [0, n) read as false.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Add sets bit i. Indices outside [0, n) are ignored.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.ensureOwned()
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i. Indices outside [0, n) are ignored.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.ensureOwned()
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Fill sets every bit in [0, n).
func (s *Set) Fill() {
	s.ensureOwned()
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Clear removes every bit.
func (s *Set) Clear() {
	s.ensureOwned()
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim zeroes the tail bits beyond n in the last word.
func (s *Set) trim() {
	if s.n == 0 || len(s.words) == 0 {
		return
	}
	rem := uint(s.n % wordBits)
	if rem != 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Full reports whether every bit in [0, n) is set.
func (s *Set) Full() bool { return s.Count() == s.n }

// UnionWith adds every element of t to s. The universes must match in size;
// mismatched universes union over the smaller word range.
func (s *Set) UnionWith(t *Set) {
	if t == nil || t.Empty() {
		return
	}
	s.ensureOwned()
	m := len(s.words)
	if len(t.words) < m {
		m = len(t.words)
	}
	for i := 0; i < m; i++ {
		s.words[i] |= t.words[i]
	}
	s.trim()
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	for i, w := range s.words {
		var tw uint64
		if t != nil && i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	if t == nil {
		return s.Empty()
	}
	return s.SubsetOf(t) && t.SubsetOf(s)
}

// ForEach calls fn for each set bit in ascending order. If fn returns false,
// iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// ForEachDiff calls fn for each bit set in s but not in t (i.e. s \ t), in
// ascending order. If fn returns false, iteration stops early. Used to
// discover newly learned rumors when absorbing a message.
func (s *Set) ForEachDiff(t *Set, fn func(i int) bool) {
	for wi, w := range s.words {
		if t != nil && wi < len(t.words) {
			w &^= t.words[wi]
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendDiff appends to dst each bit set in s but not in t (i.e. s \ t),
// in ascending order, and returns the extended slice. It is the
// allocation-free counterpart of ForEachDiff for hot paths that reuse a
// scratch buffer (the rumor-absorb path runs once per delivered message).
func (s *Set) AppendDiff(t *Set, dst []int32) []int32 {
	for wi, w := range s.words {
		if t != nil && wi < len(t.words) {
			w &^= t.words[wi]
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, int32(wi*wordBits+b))
			w &= w - 1
		}
	}
	return dst
}

// Elements returns the set's elements in ascending order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as "{a, b, c}"; large sets are abbreviated.
func (s *Set) String() string {
	const maxShown = 16
	var b strings.Builder
	b.WriteByte('{')
	shown := 0
	s.ForEach(func(i int) bool {
		if shown > 0 {
			b.WriteString(", ")
		}
		if shown >= maxShown {
			fmt.Fprintf(&b, "... %d total", s.Count())
			return false
		}
		fmt.Fprintf(&b, "%d", i)
		shown++
		return true
	})
	b.WriteByte('}')
	return b.String()
}
