package figures

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func parseDur(t *testing.T, cell string) time.Duration {
	t.Helper()
	switch {
	case strings.HasSuffix(cell, "ms"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "ms"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		return time.Duration(v * float64(time.Millisecond))
	case strings.HasSuffix(cell, "µs"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "µs"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		return time.Duration(v * float64(time.Microsecond))
	case strings.HasSuffix(cell, "s"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		return time.Duration(v * float64(time.Second))
	}
	t.Fatalf("cell %q has no duration suffix", cell)
	return 0
}

func TestModelFiguresHaveExpectedSeries(t *testing.T) {
	if rows := Fig3Model().Rows(); len(rows) != 10 {
		t.Errorf("Fig3: %d environments, want 10", len(rows))
	}
	if rows := Fig4Model().Rows(); len(rows) != 10 {
		t.Errorf("Fig4: %d environments, want 10", len(rows))
	}
	if rows := Fig5Model().Rows(); len(rows) != 10 {
		t.Errorf("Fig5: %d environments, want 10", len(rows))
	}
	if rows := Fig6Model().Rows(); len(rows) != 100 {
		t.Errorf("Fig6: %d iterations, want 100", len(rows))
	}
	if rows := Fig7Model().Rows(); len(rows) != 3 {
		t.Errorf("Fig7: %d starting points, want 3", len(rows))
	}
	if rows := Fig8Model().Rows(); len(rows) != 5 {
		t.Errorf("Fig8: %d factors, want 5", len(rows))
	}
	if rows := Fig9Model().Rows(); len(rows) != 5 {
		t.Errorf("Fig9: %d PE counts, want 5", len(rows))
	}
}

// Fig 6's modelled series must show the paper's shape: flat at the 2-P
// rate, a restart spike at iteration 26, then flat at the faster 8-P rate.
func TestFig6ModelShape(t *testing.T) {
	rows := Fig6Model().Rows()
	before := parseDur(t, rows[0][1])
	spike := parseDur(t, rows[25][1])
	after := parseDur(t, rows[30][1])
	if !(after < before) {
		t.Errorf("8-P iterations (%v) should beat 2-P iterations (%v)", after, before)
	}
	if !(spike > 3*before) {
		t.Errorf("restart iteration (%v) should spike well above %v", spike, before)
	}
	// Overall time shortened "to more than half": compare totals of
	// adapting vs staying on 2 P.
	var adapted time.Duration
	for _, r := range rows {
		adapted += parseDur(t, r[1])
	}
	stay := time.Duration(len(rows)) * before
	if !(adapted < stay*6/10) {
		t.Errorf("adapted total %v not roughly half of staying %v", adapted, stay)
	}
}

func TestFig9ModelShape(t *testing.T) {
	rows := Fig9Model().Rows()
	// Threads best at 4 and 8 PEs (single machine); MPI best at 16/32.
	get := func(r, c int) time.Duration { return parseDur(t, rows[r][c]) }
	if !(get(1, 2) <= get(1, 3)) {
		t.Errorf("at 4 PEs threads (%v) should not lose to MPI (%v)", get(1, 2), get(1, 3))
	}
	if !(get(4, 3) < get(4, 2)) {
		t.Errorf("at 32 PEs MPI (%v) must beat capped threads (%v)", get(4, 3), get(4, 2))
	}
	// Sequential flat.
	if get(0, 1) != get(4, 1) {
		t.Error("sequential time should be flat across PE counts")
	}
	// Adaptive within 5% of best everywhere.
	for r := 0; r < 5; r++ {
		best := get(r, 2)
		if m := get(r, 3); m < best {
			best = m
		}
		if ad := get(r, 4); float64(ad) > 1.055*float64(best) {
			t.Errorf("row %d: adaptive %v more than 5%% over best %v", r, ad, best)
		}
	}
}

// Real generators run end to end at a tiny scale (every code path they
// exist to exercise: checkpoint saves, failures, replays, adaptations).
func TestRealFiguresTinyScale(t *testing.T) {
	scale := RealScale{N: 64, Iters: 16, MaxPE: 4, Dir: t.TempDir()}
	if _, err := Fig3Real(scale); err != nil {
		t.Errorf("Fig3Real: %v", err)
	}
	if _, err := Fig4Real(scale); err != nil {
		t.Errorf("Fig4Real: %v", err)
	}
	if _, err := Fig5Real(scale); err != nil {
		t.Errorf("Fig5Real: %v", err)
	}
	if tbl, err := Fig6Real(scale); err != nil {
		t.Errorf("Fig6Real: %v", err)
	} else if len(tbl.Rows()) < scale.Iters-3 {
		t.Errorf("Fig6Real recorded %d iterations", len(tbl.Rows()))
	}
	if _, err := Fig7Real(scale); err != nil {
		t.Errorf("Fig7Real: %v", err)
	}
	if _, err := Fig8Real(scale); err != nil {
		t.Errorf("Fig8Real: %v", err)
	}
	if _, err := Fig9Real(scale); err != nil {
		t.Errorf("Fig9Real: %v", err)
	}
}

// Fig8Real runs SOR on the Task executor at every overdecomposition factor
// and fails unless each result equals jgf.SORReference; an uneven grid and
// an odd worker count leave chunks of unequal size.
func TestFig8RealMatchesReference(t *testing.T) {
	scale := RealScale{N: 37, Iters: 5, MaxPE: 6}
	tbl, err := Fig8Real(scale)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	factors := []int{1, 2, 4, 8, 16}
	if len(rows) != len(factors) {
		t.Fatalf("%d rows, want %d factors", len(rows), len(factors))
	}
	for i, of := range factors {
		if rows[i][0] != strconv.Itoa(of) || rows[i][1] != strconv.Itoa(3*of) {
			t.Errorf("row %d = %v, want factor %d over %d tasks", i, rows[i], of, 3*of)
		}
	}
}
