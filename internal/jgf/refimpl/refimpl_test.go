package refimpl

import (
	"testing"
	"time"
)

func TestAllVariantsAgree(t *testing.T) {
	const n, iters = 36, 7
	ref := Sequential(n, iters)
	if ref == 0 {
		t.Fatal("zero reference")
	}
	for _, nt := range []int{1, 2, 5} {
		if got := Threads(n, iters, nt); got != ref {
			t.Errorf("Threads(%d) = %v, want %v", nt, got, ref)
		}
	}
	for _, np := range []int{1, 2, 4} {
		got, err := MPI(n, iters, np, nil)
		if err != nil {
			t.Fatalf("MPI(%d): %v", np, err)
		}
		if got != ref {
			t.Errorf("MPI(%d) = %v, want %v", np, got, ref)
		}
	}
}

func TestThreadsMoreThreadsThanRows(t *testing.T) {
	ref := Sequential(8, 3)
	if got := Threads(8, 3, 16); got != ref {
		t.Errorf("Threads(16) on tiny grid = %v, want %v", got, ref)
	}
}

// TestThreadsBarrierNeverHangs repeats small Threads runs: every barrier
// round must release each thread exactly once, so no call may hang and
// every result must equal the sequential one.
func TestThreadsBarrierNeverHangs(t *testing.T) {
	const n, iters, calls = 12, 4, 2000
	ref := Sequential(n, iters)
	for i := 0; i < calls; i++ {
		nt := 2 + i%3
		done := make(chan float64, 1)
		go func() { done <- Threads(n, iters, nt) }()
		select {
		case got := <-done:
			if got != ref {
				t.Fatalf("call %d: Threads(%d) = %v, want %v", i, nt, got, ref)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("call %d: Threads(%d) hung at a barrier", i, nt)
		}
	}
}
