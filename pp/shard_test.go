package pp_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ppar/internal/ckpt"
	"ppar/pp"
)

// shardVariants maps each checkpoint pipeline flavour onto its options, all
// checkpointing every 2 safe points (the delta variants compact every 2, so
// a run killed at safe point 5 dies mid-chain: anchor wave at 2, delta wave
// at 4).
func shardVariants() map[string][]pp.Option {
	return map[string][]pp.Option{
		"sync":        {pp.WithCheckpointEvery(2)},
		"async":       {pp.WithCheckpointEvery(2), pp.WithAsyncCheckpoint()},
		"delta":       {pp.WithDeltaCheckpoint(2, 2)},
		"delta-async": {pp.WithDeltaCheckpoint(2, 2), pp.WithAsyncCheckpoint()},
	}
}

// TestShardedRestartMatrix extends the cross-mode restart matrix with
// sharded first legs: a dist(3) run with per-rank shard checkpoints under
// every pipeline flavour and store backend, killed mid-chain, restarted
// with a DIFFERENT world size (shrunk and grown) and in different modes —
// always landing on the uninterrupted result via the manifest-gated
// re-sharding restore.
func TestShardedRestartMatrix(t *testing.T) {
	want := run(t, pp.Sequential)
	targets := []struct {
		name string
		mode pp.Mode
		opts []pp.Option
	}{
		{"restart-dist2", pp.Distributed, []pp.Option{pp.WithProcs(2)}},
		{"restart-dist5", pp.Distributed, []pp.Option{pp.WithProcs(5)}},
		{"restart-smp2", pp.Shared, []pp.Option{pp.WithThreads(2)}},
		{"restart-seq", pp.Sequential, nil},
		{"restart-task2", pp.Task, []pp.Option{pp.WithProcs(2), pp.WithThreads(2), pp.WithOverdecompose(4)}},
	}
	for variant, saveOpts := range shardVariants() {
		for storeName, mkStore := range storeFactories() {
			for _, target := range targets {
				name := fmt.Sprintf("%s/%s/%s", variant, storeName, target.name)
				t.Run(name, func(t *testing.T) {
					storeOpts := mkStore(t)
					var total float64
					// Kill a non-master rank at safe point 5: the sp-4 wave
					// (a delta wave in the delta variants) is the newest
					// committed manifest.
					opts := append(append(append([]pp.Option{}, storeOpts...), saveOpts...),
						pp.WithShardCheckpoints(), pp.WithFailureAt(5, 1))
					eng := deploy(t, &total, pp.Distributed, append(opts, pp.WithProcs(3))...)
					if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
						t.Fatalf("first run: %v, want injected failure", err)
					}
					rep := eng.Report()
					if rep.Checkpoints == 0 || rep.ShardSaves < rep.Checkpoints*3 {
						t.Fatalf("first run committed no shard waves: %+v", rep)
					}

					restartOpts := append(append([]pp.Option{}, storeOpts...), saveOpts...)
					restartOpts = append(restartOpts, pp.WithShardCheckpoints())
					eng2 := deploy(t, &total, target.mode, append(restartOpts, target.opts...)...)
					if err := eng2.Run(); err != nil {
						t.Fatalf("restart as %s: %v", target.name, err)
					}
					if !eng2.Report().Restarted {
						t.Fatal("restart not recorded")
					}
					if total != want {
						t.Fatalf("recovered total=%v want %v", total, want)
					}
				})
			}
		}
	}
}

// TestShardFaultSweepLandsOnLastManifest sweeps a fault over EVERY
// shard-path store operation of a sharded async+delta run — each
// SaveShardDelta, SaveManifest and ClearShardDeltas call in turn, as a hard
// error and (for the saves) as a torn write — and verifies that the restart
// after each single injected failure lands on the last complete manifest:
// the relaunched run always finishes with the uninterrupted result. A
// mixture of old and new shards passing for a checkpoint would diverge.
func TestShardFaultSweepLandsOnLastManifest(t *testing.T) {
	want := run(t, pp.Sequential)
	// Kill at safe point 5: with WithDeltaCheckpoint(1, 3), waves land at
	// safe points 1 (anchor), 2-4 (deltas), so the sweep covers anchor
	// writes, every delta chain position, manifest commits and the
	// post-commit GC window.
	const (
		failAt       = 5
		procs        = 2
		every        = 1
		compactEvery = 3
	)
	newOpts := func(store pp.Store, fail bool) []pp.Option {
		opts := []pp.Option{
			pp.WithProcs(procs), pp.WithStore(store),
			pp.WithShardCheckpoints(), pp.WithDeltaCheckpoint(every, compactEvery), pp.WithAsyncCheckpoint(),
		}
		if fail {
			opts = append(opts, pp.WithFailureAt(failAt, 0))
		}
		return opts
	}

	// The sweep range is the schedule's upper bound on each op, so the
	// subtests are the same in every run. The asynchronous pool folds
	// waves, so a run may perform fewer ops than the bound: a fault armed
	// past the actual count simply never fires, and the assertion still
	// holds. Each wave writes one link per rank and commits at most one
	// manifest; only anchor commits garbage-collect, once per rank.
	waves := (failAt - 1) / every
	anchors := (waves + compactEvery) / (compactEvery + 1)
	bound := map[ckpt.FaultOp]int{
		ckpt.OpSaveShardDelta:   waves * procs,
		ckpt.OpSaveManifest:     waves,
		ckpt.OpClearShardDeltas: anchors * procs,
	}
	// Dry run: the interrupted run must stay within the bound (or the sweep
	// would miss ops) and reach its floor. Folding may collapse
	// intermediate waves, but the exit drain guarantees at least the final
	// wave landed in full: one link per rank plus its manifest.
	{
		store := ckpt.NewFault()
		var total float64
		eng := deploy(t, &total, pp.Distributed, newOpts(store, true)...)
		if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
			t.Fatalf("dry run: %v", err)
		}
		for op, limit := range bound {
			if n := store.Ops(op); n > limit {
				t.Fatalf("dry run performed %d %s ops, above the sweep bound %d", n, op, limit)
			}
		}
		if store.Ops(ckpt.OpSaveShardDelta) < procs || store.Ops(ckpt.OpSaveManifest) < 1 {
			t.Fatalf("dry run exercised too little: %d links, %d manifests",
				store.Ops(ckpt.OpSaveShardDelta), store.Ops(ckpt.OpSaveManifest))
		}
	}

	type injection struct {
		op   ckpt.FaultOp
		torn bool
	}
	var cases []injection
	for _, op := range []ckpt.FaultOp{ckpt.OpSaveShardDelta, ckpt.OpSaveManifest, ckpt.OpClearShardDeltas} {
		cases = append(cases, injection{op, false})
	}
	cases = append(cases, injection{ckpt.OpSaveShardDelta, true}, injection{ckpt.OpSaveManifest, true})

	for _, inj := range cases {
		for n := 1; n <= bound[inj.op]; n++ {
			kind := "fail"
			if inj.torn {
				kind = "tear"
			}
			t.Run(fmt.Sprintf("%s-%s-%d", kind, inj.op, n), func(t *testing.T) {
				store := ckpt.NewFault()
				if inj.torn {
					store.ArmTorn(inj.op, n)
				} else {
					store.Arm(inj.op, n)
				}
				var total float64
				eng := deploy(t, &total, pp.Distributed, newOpts(store, true)...)
				if err := eng.Run(); err == nil {
					t.Fatal("interrupted run reported success")
				}
				store.Disarm()

				eng2 := deploy(t, &total, pp.Distributed, newOpts(store, false)...)
				if err := eng2.Run(); err != nil {
					// Torn writes model a non-atomic store: the one outcome
					// allowed to fail — and only loudly — is a committed
					// artifact (the manifest itself, or a link the manifest
					// references) decoding as damaged at restart. The stock
					// FS store's rename atomicity rules this out; a silent
					// divergence is never allowed.
					if inj.torn && strings.Contains(err.Error(), "decode") {
						return
					}
					t.Fatalf("restart: %v", err)
				}
				if total != want {
					t.Fatalf("recovered total=%v want %v (restart did not land on the last complete manifest)", total, want)
				}
			})
		}
	}
}

// TestShardResizeRoundTrip is the acceptance path of the re-sharding
// restore: smp(8) stops for adaptation, restarts as a SHARDED dist(4) run
// (canonical → shard), is killed mid-chain, and restarts again as dist(6)
// (shard → resized shard world) — landing byte-identically on the result of
// an unmigrated run.
func TestShardResizeRoundTrip(t *testing.T) {
	want := run(t, pp.Sequential)
	store := pp.NewMemStore()
	var total float64

	eng := deploy(t, &total, pp.Shared, pp.WithThreads(8),
		pp.WithStore(store), pp.WithCheckpointEvery(2), pp.WithAdaptPolicy(pp.StopAt(3)))
	var stopped *pp.ErrStopped
	if err := eng.Run(); !errors.As(err, &stopped) {
		t.Fatalf("smp leg: %v, want ErrStopped", err)
	}

	eng2 := deploy(t, &total, pp.Distributed, pp.WithProcs(4),
		pp.WithStore(store), pp.WithShardCheckpoints(),
		pp.WithDeltaCheckpoint(1, 2), pp.WithAsyncCheckpoint(),
		pp.WithFailureAt(5, 0))
	if err := eng2.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
		t.Fatalf("sharded dist leg: %v, want injected failure", err)
	}
	if !eng2.Report().Restarted {
		t.Fatal("sharded leg did not resume from the stop snapshot")
	}
	if eng2.Report().Checkpoints == 0 {
		t.Fatal("sharded leg committed no waves before the kill")
	}

	eng3 := deploy(t, &total, pp.Distributed, pp.WithProcs(6),
		pp.WithStore(store), pp.WithShardCheckpoints(),
		pp.WithDeltaCheckpoint(1, 2), pp.WithAsyncCheckpoint())
	if err := eng3.Run(); err != nil {
		t.Fatalf("resized sharded leg: %v", err)
	}
	if !eng3.Report().Restarted {
		t.Fatal("resized leg did not restart from the manifest")
	}
	if total != want {
		t.Fatalf("round trip total=%v want %v", total, want)
	}
}

// TestShardMigrationInProcess migrates a sharded run across executors at a
// safe point inside one Run call (shard → canonical migration snapshot →
// shared-memory executor), with the shard pipeline re-anchored afterwards.
func TestShardMigrationInProcess(t *testing.T) {
	want := run(t, pp.Sequential)
	store := pp.NewMemStore()
	var total float64
	eng := deploy(t, &total, pp.Distributed, pp.WithProcs(3),
		pp.WithStore(store), pp.WithShardCheckpoints(),
		pp.WithDeltaCheckpoint(1, 2), pp.WithAsyncCheckpoint(),
		pp.WithAdaptPolicy(pp.AdaptAt(3, pp.AdaptTarget{Mode: pp.Shared, Threads: 2})))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if rep.Migrations != 1 {
		t.Fatalf("want 1 in-process migration, got %+v", rep)
	}
	if total != want {
		t.Fatalf("migrated total=%v want %v", total, want)
	}
}

// TestShardStopPrefersNewerCanonical: a RequestStop in a sharded async run
// drains the pool and writes a canonical stop snapshot; the relaunch —
// into a different world size — must resume from that snapshot (newer than
// any manifest), not an older shard wave.
func TestShardStopPrefersNewerCanonical(t *testing.T) {
	want := run(t, pp.Sequential)
	for i := 0; i < 6; i++ {
		i := i
		t.Run(fmt.Sprintf("stop-after-%dus", 60*i), func(t *testing.T) {
			store := pp.NewMemStore()
			var total float64
			eng := deploy(t, &total, pp.Distributed, pp.WithProcs(2),
				pp.WithStore(store), pp.WithShardCheckpoints(),
				pp.WithCheckpointEvery(1), pp.WithAsyncCheckpoint())
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(60*i) * time.Microsecond)
				eng.RequestStop()
			}()
			err := eng.Run()
			wg.Wait()
			var stopped *pp.ErrStopped
			switch {
			case err == nil:
				if total != want {
					t.Fatalf("completed total=%v want %v", total, want)
				}
				return
			case errors.As(err, &stopped):
			default:
				t.Fatalf("run: %v", err)
			}

			eng2 := deploy(t, &total, pp.Distributed, pp.WithProcs(3),
				pp.WithStore(store), pp.WithShardCheckpoints(),
				pp.WithCheckpointEvery(1), pp.WithAsyncCheckpoint())
			if rerr := eng2.Run(); rerr != nil {
				t.Fatalf("restart: %v", rerr)
			}
			if total != want {
				t.Fatalf("resumed total=%v want %v", total, want)
			}
		})
	}
}
