package bitset

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Bitmap byte layout, shared by a Set over [0, n) and by each row of an n×n
// Matrix: BitmapLen(n) bytes, bit i of the set in bit i%8 of byte i/8. That
// is the little-endian byte image of the word storage cut to BitmapLen(n)
// bytes, so encoding and decoding copy whole words plus a byte tail. The
// high bits of the last byte beyond n are padding: an encoder writes them
// zero and a loader rejects a bitmap that sets them, which keeps every bit
// ≥ n clear and makes the encoding canonical.

// BitmapLen returns the byte length of the bitmap of a set over [0, n).
func BitmapLen(n int) int { return (n + 7) / 8 }

// AppendBitmap appends the bitmap of s to dst and returns the extended
// slice.
func (s *Set) AppendBitmap(dst []byte) []byte {
	return appendBitmap(dst, s.words, s.n)
}

// LoadBitmap replaces the contents of s with the bitmap src, which must be
// exactly BitmapLen(s.Universe()) bytes with zero padding bits. On error s
// is unchanged. Snapshots of s keep their contents.
func (s *Set) LoadBitmap(src []byte) error {
	if nb := BitmapLen(s.n); len(src) != nb {
		return fmt.Errorf("bitset: bitmap is %d bytes, want %d", len(src), nb)
	}
	if paddingSet(src, s.n) {
		return fmt.Errorf("bitset: bitmap sets padding bits beyond universe %d", s.n)
	}
	s.ensureOwned()
	loadBitmap(s.words, src)
	return nil
}

// AppendBitmap appends the n row bitmaps of m, row 0 first, to dst and
// returns the extended slice.
func (m *Matrix) AppendBitmap(dst []byte) []byte {
	dst = slices.Grow(dst, m.n*BitmapLen(m.n))
	for row := 0; row < m.n; row++ {
		dst = appendBitmap(dst, m.words[row*m.stride:(row+1)*m.stride], m.n)
	}
	return dst
}

// LoadBitmap replaces the contents of m with src, n row bitmaps as
// AppendBitmap writes them: exactly n·BitmapLen(n) bytes, with zero padding
// bits in every row. On error m is unchanged. Snapshots of m keep their
// contents.
func (m *Matrix) LoadBitmap(src []byte) error {
	rowLen := BitmapLen(m.n)
	if len(src) != m.n*rowLen {
		return fmt.Errorf("bitset: matrix bitmap is %d bytes, want %d", len(src), m.n*rowLen)
	}
	for row := 0; row < m.n; row++ {
		if paddingSet(src[row*rowLen:(row+1)*rowLen], m.n) {
			return fmt.Errorf("bitset: matrix row %d sets padding bits beyond universe %d", row, m.n)
		}
	}
	m.ensureOwned()
	for row := 0; row < m.n; row++ {
		loadBitmap(m.words[row*m.stride:(row+1)*m.stride], src[row*rowLen:(row+1)*rowLen])
	}
	return nil
}

// appendBitmap appends the BitmapLen(n) low bytes of words, little-endian.
func appendBitmap(dst []byte, words []uint64, n int) []byte {
	nb := BitmapLen(n)
	start := len(dst)
	dst = slices.Grow(dst, nb)[:start+nb]
	b := dst[start:]
	full := nb / 8
	for i, w := range words[:full] {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	if full < len(words) {
		for k, w := 8*full, words[full]; k < nb; k, w = k+1, w>>8 {
			b[k] = byte(w)
		}
	}
	return dst
}

// paddingSet reports whether the BitmapLen(n)-byte bitmap src sets any bit
// at or beyond n.
func paddingSet(src []byte, n int) bool {
	return n%8 != 0 && src[len(src)-1]>>(n%8) != 0
}

// loadBitmap overwrites words with the bitmap src; len(words) must be
// wordsFor(n) for the n that src's BitmapLen(n) bytes encode.
func loadBitmap(words []uint64, src []byte) {
	full := len(src) / 8
	for i := range words[:full] {
		words[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	if full < len(words) {
		var w uint64
		for k := len(src) - 1; k >= 8*full; k-- {
			w = w<<8 | uint64(src[k])
		}
		words[full] = w
	}
}
