package pp_test

import (
	"errors"
	"testing"

	"ppar/pp"
)

// The scheduler counters feed the autoscaler's queue-pressure estimators, so
// their chunk component must be a pure function of the deployment — not of
// thread timing, restarts or migrations. Steals and idle scans are genuinely
// nondeterministic (randomized stealing); Chunks is the deterministic signal
// the controller leans on.

func taskCounter(t *testing.T, opts ...pp.Option) *pp.Engine {
	t.Helper()
	var total float64
	return deploy(t, &total, pp.Task,
		append([]pp.Option{pp.WithThreads(2), pp.WithOverdecompose(4)}, opts...)...)
}

// TestSchedChunksDeterministicAcrossRestart: a clean checkpoint-and-stop
// (the fleet's suspend path) freezes the chunk counter at the blocks
// actually dispatched, and the restarted leg replays the identical schedule
// — its counter lands exactly on the uninterrupted run's value, however the
// work was split across legs.
func TestSchedChunksDeterministicAcrossRestart(t *testing.T) {
	ref := taskCounter(t)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Report().TaskChunks
	if want == 0 {
		t.Fatal("reference run dispatched no chunks")
	}

	// Repeatability: chunk dispatch is schedule-shaped, not timing-shaped.
	again := taskCounter(t)
	if err := again.Run(); err != nil {
		t.Fatal(err)
	}
	if got := again.Report().TaskChunks; got != want {
		t.Fatalf("uninterrupted chunk count not deterministic: %d vs %d", got, want)
	}

	store := pp.NewMemStore()
	leg1 := taskCounter(t, pp.WithStore(store), pp.WithCheckpointEvery(2), pp.WithAdaptPolicy(pp.StopAt(3)))
	var stopped *pp.ErrStopped
	if err := leg1.Run(); !errors.As(err, &stopped) {
		t.Fatalf("first leg: %v, want checkpoint-and-stop", err)
	}
	atStop := leg1.Report().TaskChunks
	if atStop == 0 || atStop >= want {
		t.Fatalf("stopped leg dispatched %d chunks, want a strict prefix of %d", atStop, want)
	}
	if sched := leg1.Report().Sched(); sched.Chunks != atStop {
		t.Fatalf("metrics bridge disagrees with the report: %d vs %d", sched.Chunks, atStop)
	}

	// The stop point is deterministic, so the frozen counter is too.
	leg1b := taskCounter(t, pp.WithStore(pp.NewMemStore()), pp.WithCheckpointEvery(2), pp.WithAdaptPolicy(pp.StopAt(3)))
	if err := leg1b.Run(); !errors.As(err, &stopped) {
		t.Fatalf("repeated first leg: %v, want checkpoint-and-stop", err)
	}
	if got := leg1b.Report().TaskChunks; got != atStop {
		t.Fatalf("stopped-leg chunk count not deterministic: %d vs %d", got, atStop)
	}

	leg2 := taskCounter(t, pp.WithStore(store), pp.WithCheckpointEvery(2))
	if err := leg2.Run(); err != nil {
		t.Fatal(err)
	}
	if !leg2.Report().Restarted {
		t.Fatal("restart not recorded")
	}
	if got := leg2.Report().TaskChunks; got != want {
		t.Fatalf("restarted run dispatched %d chunks, want the uninterrupted %d", got, want)
	}
}

// TestSchedChunksFreezeAtMigration: an in-process migration out of Task mode
// stops chunk dispatch at the migration safe point — the counter equals the
// checkpoint-and-stop freeze at the same point, and the post-migration mode
// adds nothing. The autoscaler reads this as "queue pressure up to the
// move", never a mixed-mode hybrid number.
func TestSchedChunksFreezeAtMigration(t *testing.T) {
	leg := taskCounter(t, pp.WithStore(pp.NewMemStore()), pp.WithCheckpointEvery(2), pp.WithAdaptPolicy(pp.StopAt(3)))
	var stopped *pp.ErrStopped
	if err := leg.Run(); !errors.As(err, &stopped) {
		t.Fatalf("stop leg: %v, want checkpoint-and-stop", err)
	}
	atStop := leg.Report().TaskChunks

	mig := taskCounter(t, pp.WithAdaptPolicy(pp.AdaptAt(3, pp.AdaptTarget{Mode: pp.Shared, Threads: 2})))
	if err := mig.Run(); err != nil {
		t.Fatal(err)
	}
	rep := mig.Report()
	if rep.Migrations != 1 {
		t.Fatalf("expected one migration, got %+v", rep)
	}
	if rep.TaskChunks != atStop {
		t.Fatalf("migrated run froze at %d chunks, want %d (the stop freeze at the same safe point)",
			rep.TaskChunks, atStop)
	}
	if sched := rep.Sched(); sched.Chunks != rep.TaskChunks || sched.Steals != rep.Steals {
		t.Fatalf("metrics bridge disagrees with the report: %+v vs %+v", sched, rep)
	}
}
