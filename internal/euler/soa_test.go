package euler

import (
	"testing"
)

// TestStateSoARoundTrip checks the SoA block's conversion surface: a
// []State gathered with FromStates reads back unchanged through At and
// CopyRange, and ZeroRange clears exactly its range.
func TestStateSoARoundTrip(t *testing.T) {
	_, w := kernelFixture(t)
	n := len(w)

	s := NewStateSoA(n)
	s.FromStates(w, 0, n)
	for i := range w {
		if s.At(i) != w[i] {
			t.Fatalf("At(%d) = %v, want %v", i, s.At(i), w[i])
		}
	}

	dst := NewStateSoA(n)
	dst.CopyRange(s, 3, n-2)
	for i := 3; i < n-2; i++ {
		if dst.At(i) != s.At(i) {
			t.Fatalf("CopyRange: vertex %d = %v, want %v", i, dst.At(i), s.At(i))
		}
	}
	if dst.At(0) != (State{}) || dst.At(n-1) != (State{}) {
		t.Fatal("CopyRange wrote outside its range")
	}

	s.ZeroRange(2, 5)
	for i := 2; i < 5; i++ {
		if s.At(i) != (State{}) {
			t.Fatalf("ZeroRange left vertex %d = %v", i, s.At(i))
		}
	}
	if s.At(1) == (State{}) || s.At(5) == (State{}) {
		t.Fatal("ZeroRange cleared outside its range")
	}
}
