package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	even := Summarize([]float64{1, 2, 3, 4})
	if even.Median != 2.5 {
		t.Fatalf("even median = %v", even.Median)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary: %+v", empty)
	}
	one := Summarize([]float64{7})
	if one.Std != 0 || one.Mean != 7 {
		t.Fatalf("singleton summary: %+v", one)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x+1
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R² = %v", f.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestGrowthExponent(t *testing.T) {
	// y = 4·x^1.75
	xs := []float64{64, 128, 256, 512}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 4 * math.Pow(x, 1.75)
	}
	f, err := GrowthExponent(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-1.75) > 1e-9 {
		t.Fatalf("exponent %v, want 1.75", f.Slope)
	}
	if _, err := GrowthExponent([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Fatal("negative data accepted")
	}
}

// Property: fitting y = a·x + b recovers a, b for random a, b.
func TestQuickLinearFitRecovers(t *testing.T) {
	f := func(a8, b8 int8) bool {
		a, b := float64(a8), float64(b8)
		xs := []float64{1, 2, 5, 9, 14}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x + b
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(fit.Slope-a) < 1e-6 && math.Abs(fit.Intercept-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "algo", "time", "msgs")
	tb.AddRow("ears", 123.0, int64(45678))
	tb.AddRow("tears", 1.5, int64(99))
	tb.AddNote("n=%d", 128)
	out := tb.String()
	for _, want := range []string{"Table X", "algo", "ears", "tears", "45678", "1.500", "note: n=128"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Alignment: header and separator rows have equal length.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("x,with,commas", 1.5)
	tb.AddRow("plain", int64(7))
	tb.AddNote("ignored in csv")
	out := tb.CSV()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("header: %q", out)
	}
	if !strings.Contains(out, `"x,with,commas",1.500`) {
		t.Fatalf("quoting broken:\n%s", out)
	}
	if strings.Contains(out, "ignored") {
		t.Fatal("notes leaked into csv")
	}
	if tb.title != "T" || tb.Table() != tb {
		t.Fatal("accessors")
	}
}
