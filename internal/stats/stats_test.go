package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.Std != 0 || s.Min != 5 || s.Max != 5 || s.Median != 5 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	if math.Abs(s.Std-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v", s.Median)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Median != 2 {
		t.Errorf("median = %v, want 2", s.Median)
	}
}

func TestSummarizeProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Min > s.Median+1e-9 || s.Median > s.Max+1e-9 {
			return false
		}
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if s.Std < 0 {
			return false
		}
		return s.CI95Lo <= s.Mean+1e-9 && s.Mean <= s.CI95Hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
