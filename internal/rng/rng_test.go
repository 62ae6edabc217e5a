package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams collided %d/1000 times", same)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split(5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.2) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.2) > 0.01 {
		t.Fatalf("Bool(0.2) rate = %v", got)
	}
}

func TestBoolDegenerate(t *testing.T) {
	s := New(1)
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	if s.Bool(-0.5) {
		t.Fatal("Bool(-0.5) returned true")
	}
	if !s.Bool(1.5) {
		t.Fatal("Bool(1.5) returned false")
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(17)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(19)
	var sum, sumsq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("NormFloat64 mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("NormFloat64 variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}
