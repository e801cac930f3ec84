package pp_test

import (
	"errors"
	"testing"

	"ppar/pp"
)

// nonFSStores builds one of each non-filesystem backend, so every test
// below runs through both the in-memory store and the gzip wrapper.
func nonFSStores() map[string]pp.Store {
	return map[string]pp.Store{
		"mem":      pp.NewMemStore(),
		"gzip-mem": pp.NewGzipStore(pp.NewMemStore()),
	}
}

// TestCanonicalRestartThroughStores injects a failure into a distributed
// run checkpointing through a non-filesystem store and verifies the rerun
// replays from the canonical snapshot and completes correctly.
func TestCanonicalRestartThroughStores(t *testing.T) {
	want := run(t, pp.Sequential)
	for name, store := range nonFSStores() {
		t.Run(name, func(t *testing.T) {
			var total float64
			// Fail on the master rank: it completes its gather-at-master
			// save at safe point 4 before dying at 5, so a snapshot is
			// guaranteed to exist regardless of rank interleaving.
			eng := deploy(t, &total, pp.Distributed, pp.WithProcs(3),
				pp.WithStore(store), pp.WithCheckpointEvery(2),
				pp.WithFailureAt(5, 0))
			if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
				t.Fatalf("want injected failure, got %v", err)
			}
			eng2 := deploy(t, &total, pp.Distributed, pp.WithProcs(3),
				pp.WithStore(store), pp.WithCheckpointEvery(2))
			if err := eng2.Run(); err != nil {
				t.Fatal(err)
			}
			rep := eng2.Report()
			if !rep.Restarted {
				t.Fatal("second run did not replay from the checkpoint")
			}
			if total != want {
				t.Fatalf("recovered total=%v want %v", total, want)
			}
		})
	}
}

// TestShardRestartThroughStores exercises the paper's first distributed
// alternative — per-rank shard snapshots — through the non-filesystem
// backends.
func TestShardRestartThroughStores(t *testing.T) {
	want := run(t, pp.Sequential)
	for name, store := range nonFSStores() {
		t.Run(name, func(t *testing.T) {
			var total float64
			eng := deploy(t, &total, pp.Distributed, pp.WithProcs(3),
				pp.WithStore(store), pp.WithCheckpointEvery(2),
				pp.WithShardCheckpoints(), pp.WithFailureAt(5, 2))
			if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
				t.Fatalf("want injected failure, got %v", err)
			}
			eng2 := deploy(t, &total, pp.Distributed, pp.WithProcs(3),
				pp.WithStore(store), pp.WithCheckpointEvery(2),
				pp.WithShardCheckpoints())
			if err := eng2.Run(); err != nil {
				t.Fatal(err)
			}
			if !eng2.Report().Restarted {
				t.Fatal("second run did not replay from the shard checkpoints")
			}
			if total != want {
				t.Fatalf("recovered total=%v want %v", total, want)
			}
		})
	}
}

// TestCrossModeRestartThroughStores stops a Shared run with a canonical
// checkpoint, then restarts it Distributed from the same non-filesystem
// store — the paper's adaptation by restart across execution modes, with
// the checkpoint never touching a filesystem.
func TestCrossModeRestartThroughStores(t *testing.T) {
	want := run(t, pp.Sequential)
	for name, store := range nonFSStores() {
		t.Run(name, func(t *testing.T) {
			var total float64
			eng := deploy(t, &total, pp.Shared, pp.WithThreads(2),
				pp.WithStore(store), pp.WithAdaptPolicy(pp.StopAt(3)))
			err := eng.Run()
			var stopped *pp.ErrStopped
			if !errors.As(err, &stopped) {
				t.Fatalf("want ErrStopped, got %v", err)
			}
			if stopped.SafePoint != 3 {
				t.Fatalf("stopped at %d, want 3", stopped.SafePoint)
			}

			eng2 := deploy(t, &total, pp.Distributed, pp.WithProcs(4),
				pp.WithStore(store))
			if err := eng2.Run(); err != nil {
				t.Fatal(err)
			}
			rep := eng2.Report()
			if !rep.Restarted {
				t.Fatal("distributed run did not replay the shared-mode snapshot")
			}
			if total != want {
				t.Fatalf("cross-mode total=%v want %v", total, want)
			}
		})
	}
}

// TestLedgerCleanFinishNoReplay verifies the crash-ledger semantics through
// a pluggable store: a cleanly finished run leaves a snapshot behind but a
// clean ledger, so the next run must NOT replay.
func TestLedgerCleanFinishNoReplay(t *testing.T) {
	for name, store := range nonFSStores() {
		t.Run(name, func(t *testing.T) {
			var total float64
			eng := deploy(t, &total, pp.Shared, pp.WithThreads(2),
				pp.WithStore(store), pp.WithCheckpointEvery(2))
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if eng.Report().Checkpoints == 0 {
				t.Fatal("no checkpoints taken in the first run")
			}
			// Snapshot exists, but the ledger is clean: fresh start.
			eng2 := deploy(t, &total, pp.Shared, pp.WithThreads(2),
				pp.WithStore(store), pp.WithCheckpointEvery(2))
			if err := eng2.Run(); err != nil {
				t.Fatal(err)
			}
			if eng2.Report().Restarted {
				t.Fatal("clean completion must not trigger replay")
			}
		})
	}
}

// TestHybridCheckpointThroughGzip drives the hybrid deployment (replicas ×
// teams) through the compressing wrapper end to end.
func TestHybridCheckpointThroughGzip(t *testing.T) {
	want := run(t, pp.Sequential)
	store := pp.NewGzipStore(pp.NewMemStore())
	var total float64
	eng := deploy(t, &total, pp.Hybrid, pp.WithProcs(2), pp.WithThreads(2),
		pp.WithStore(store), pp.WithCheckpointEvery(3), pp.WithFailureAt(4, 0))
	if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
		t.Fatalf("want injected failure, got %v", err)
	}
	eng2 := deploy(t, &total, pp.Hybrid, pp.WithProcs(2), pp.WithThreads(2),
		pp.WithStore(store), pp.WithCheckpointEvery(3))
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("recovered total=%v want %v", total, want)
	}
}
