package bitset

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

var bitmapUniverses = []int{0, 1, 7, 8, 63, 64, 65, 127, 128, 640}

// refBitmap is the per-bit reference layout: bit i of bits in bit i%8 of
// byte i/8.
func refBitmap(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

func randomBits(r *rng.RNG, n int) []bool {
	bits := make([]bool, n)
	density := r.Float64()
	for i := range bits {
		bits[i] = r.Bool(density)
	}
	if n > 0 {
		bits[n-1] = true // the highest data bit, next to the padding
	}
	return bits
}

func TestSetBitmapMatchesReference(t *testing.T) {
	r := rng.New(7)
	prefix := []byte{0xaa, 0x55}
	for _, n := range bitmapUniverses {
		for trial := 0; trial < 4; trial++ {
			bits := randomBits(r, n)
			want := refBitmap(bits)
			s := New(n)
			for i, b := range bits {
				if b {
					s.Add(i)
				}
			}
			if got := s.AppendBitmap(bytes.Clone(prefix)); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
				t.Fatalf("n=%d: AppendBitmap = %x, want %x after the prefix", n, got, want)
			}
			if BitmapLen(n) != len(want) {
				t.Fatalf("BitmapLen(%d) = %d, want %d", n, BitmapLen(n), len(want))
			}
			loaded := New(n)
			loaded.Fill() // LoadBitmap must overwrite, not OR
			if err := loaded.LoadBitmap(want); err != nil {
				t.Fatalf("n=%d: LoadBitmap: %v", n, err)
			}
			for i, b := range bits {
				if loaded.Test(i) != b {
					t.Fatalf("n=%d: loaded bit %d = %v, want %v", n, i, !b, b)
				}
			}
			if loaded.Count() != s.Count() {
				t.Fatalf("n=%d: loaded %d bits, want %d", n, loaded.Count(), s.Count())
			}
		}
	}
}

func TestMatrixBitmapMatchesReference(t *testing.T) {
	r := rng.New(11)
	for _, n := range bitmapUniverses {
		m := NewMatrix(n)
		var want []byte
		rows := make([][]bool, n)
		for row := range rows {
			rows[row] = randomBits(r, n)
			for c, b := range rows[row] {
				if b {
					m.Set(row, c)
				}
			}
			want = append(want, refBitmap(rows[row])...)
		}
		if got := m.AppendBitmap(nil); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendBitmap differs from the per-bit reference", n)
		}
		loaded := NewMatrix(n)
		if err := loaded.LoadBitmap(want); err != nil {
			t.Fatalf("n=%d: LoadBitmap: %v", n, err)
		}
		for row := range rows {
			for c, b := range rows[row] {
				if loaded.Test(row, c) != b {
					t.Fatalf("n=%d: loaded (%d,%d) = %v, want %v", n, row, c, !b, b)
				}
			}
		}
		if !loaded.Equal(m) || loaded.Count() != m.Count() {
			t.Fatalf("n=%d: loaded matrix differs from the original", n)
		}
	}
}

// Loading into storage shared with a snapshot copies first: the snapshot
// keeps what it saw, in both ownership modes.
func TestBitmapLoadKeepsSnapshots(t *testing.T) {
	const n = 70
	src := New(n)
	src.Add(3)
	src.Add(n - 1)
	setBits := src.AppendBitmap(nil)
	srcM := NewMatrix(n)
	srcM.Set(5, 69)
	srcM.Set(69, 0)
	matBits := srcM.AppendBitmap(nil)

	for _, pool := range []*Pool{nil, NewPool(n)} {
		s, m := New(n), NewMatrix(n)
		if pool != nil {
			s, m = pool.NewSet(), pool.NewMatrix()
		}
		s.Add(10)
		m.Set(1, 2)
		sSnap, mSnap := s.Snapshot(), m.Snapshot()
		if err := s.LoadBitmap(setBits); err != nil {
			t.Fatal(err)
		}
		if err := m.LoadBitmap(matBits); err != nil {
			t.Fatal(err)
		}
		if !s.Equal(src) || !m.Equal(srcM) {
			t.Errorf("pooled=%v: load did not replace the contents", pool != nil)
		}
		if sSnap.Count() != 1 || !sSnap.Test(10) {
			t.Errorf("pooled=%v: set snapshot changed to %v", pool != nil, sSnap)
		}
		if mSnap.Count() != 1 || !mSnap.Test(1, 2) {
			t.Errorf("pooled=%v: matrix snapshot changed (count %d)", pool != nil, mSnap.Count())
		}
		sSnap.Release()
		mSnap.Release()
	}
}

// A set padding bit, or a wrong length, is rejected and leaves the target
// unchanged.
func TestBitmapLoadRejectsNonCanonical(t *testing.T) {
	const n = 13 // bits 5..7 of the second byte are padding
	s := New(n)
	s.Add(4)
	m := NewMatrix(n)
	m.Set(2, 12)
	for bit := n % 8; bit < 8; bit++ {
		if err := s.LoadBitmap([]byte{0xff, 1 << bit}); err == nil {
			t.Errorf("set: padding bit %d accepted", bit)
		}
		bad := m.AppendBitmap(nil)
		bad[2*BitmapLen(n)-1] |= 1 << bit // row 1
		if err := m.LoadBitmap(bad); err == nil {
			t.Errorf("matrix: padding bit %d accepted", bit)
		}
	}
	for _, src := range [][]byte{nil, {0}, {0, 0, 0}} {
		if err := s.LoadBitmap(src); err == nil {
			t.Errorf("set: %d-byte bitmap accepted over universe %d", len(src), n)
		}
	}
	if err := m.LoadBitmap(make([]byte, n*BitmapLen(n)-1)); err == nil {
		t.Error("matrix: short bitmap accepted")
	}
	if s.Count() != 1 || !s.Test(4) || m.Count() != 1 || !m.Test(2, 12) {
		t.Error("a rejected load changed the target")
	}
}
