package pp_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ppar/internal/ckpt"
	"ppar/internal/serial"
	"ppar/pp"
)

// storeFactories builds, per case, a pair of option slices that make two
// consecutive engines share one checkpoint backend: a filesystem directory,
// an in-memory store, or the gzip wrapper over memory.
func storeFactories() map[string]func(t *testing.T) []pp.Option {
	return map[string]func(t *testing.T) []pp.Option{
		"fs": func(t *testing.T) []pp.Option {
			dir := t.TempDir()
			return []pp.Option{pp.WithCheckpointDir(dir)}
		},
		"mem": func(t *testing.T) []pp.Option {
			store := pp.NewMemStore()
			return []pp.Option{pp.WithStore(store)}
		},
		"gzip": func(t *testing.T) []pp.Option {
			store := pp.NewGzipStore(pp.NewMemStore())
			return []pp.Option{pp.WithStore(store)}
		},
	}
}

// saveVariants maps each checkpoint pipeline flavour onto its options (all
// checkpoint every 2 safe points; the delta variants compact every 2, so a
// run interrupted at safe point 5 dies mid-chain: base at 2, delta at 4).
func saveVariants() map[string][]pp.Option {
	return map[string][]pp.Option{
		"sync":        {pp.WithCheckpointEvery(2)},
		"async":       {pp.WithCheckpointEvery(2), pp.WithAsyncCheckpoint()},
		"delta":       {pp.WithDeltaCheckpoint(2, 2)},
		"delta-async": {pp.WithDeltaCheckpoint(2, 2), pp.WithAsyncCheckpoint()},
	}
}

// TestCrossModeRestartMatrix is the full cross-product the checkpoint path
// promises: {Sequential, Shared, Distributed} × {sync, async, delta(+async)}
// × {fs, mem, gzip}, killed mid-run, restarted in EVERY OTHER mode, always
// landing on the uninterrupted result.
func TestCrossModeRestartMatrix(t *testing.T) {
	want := run(t, pp.Sequential)
	modes := []struct {
		name string
		mode pp.Mode
		opts []pp.Option
	}{
		{"seq", pp.Sequential, nil},
		{"smp", pp.Shared, []pp.Option{pp.WithThreads(2)}},
		{"dist", pp.Distributed, []pp.Option{pp.WithProcs(3)}},
	}
	for _, first := range modes {
		for variant, saveOpts := range saveVariants() {
			for storeName, mkStore := range storeFactories() {
				for _, second := range modes {
					if second.mode == first.mode {
						continue
					}
					name := fmt.Sprintf("%s/%s/%s/restart-%s", first.name, variant, storeName, second.name)
					t.Run(name, func(t *testing.T) {
						storeOpts := mkStore(t)
						var total float64
						// Fail on the master rank at safe point 5: the
						// sp-4 checkpoint (a delta in the delta variants)
						// is the newest restart point.
						opts := append(append(append([]pp.Option{}, storeOpts...), saveOpts...),
							pp.WithFailureAt(5, 0))
						eng := deploy(t, &total, first.mode, append(opts, first.opts...)...)
						if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
							t.Fatalf("first run: %v, want injected failure", err)
						}
						if eng.Report().Checkpoints == 0 {
							t.Fatal("first run persisted no checkpoints")
						}

						restartOpts := append(append([]pp.Option{}, storeOpts...), saveOpts...)
						eng2 := deploy(t, &total, second.mode, append(restartOpts, second.opts...)...)
						if err := eng2.Run(); err != nil {
							t.Fatalf("restart in %s: %v", second.name, err)
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
}

// TestDeltaFaultInjectionAlwaysConsistent sweeps a fault over EVERY
// checkpoint-path store operation of a delta-checkpointing run — each
// Save, SaveDelta and ClearDeltas call in turn, as a hard error and (for
// the saves) as a torn write — and verifies that the restart after each
// single injected failure loads a consistent snapshot and finishes with
// the uninterrupted result. A half-applied delta chain would diverge.
func TestDeltaFaultInjectionAlwaysConsistent(t *testing.T) {
	want := run(t, pp.Sequential)

	// Kill at safe point 6: checkpoints land at sp 1 (full), 2-4 (deltas)
	// and 5 (compaction full), so the sweep covers a torn base that a later
	// compaction overwrites, a torn final base, torn deltas in every chain
	// position, and both compaction ClearDeltas windows.
	const failAt = 6

	// Dry run: count how many of each op the interrupted run performs.
	counts := map[ckpt.FaultOp]int{}
	{
		store := ckpt.NewFault()
		var total float64
		eng := deploy(t, &total, pp.Shared, pp.WithThreads(2),
			pp.WithStore(store), pp.WithDeltaCheckpoint(1, 3), pp.WithFailureAt(failAt, 0))
		if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
			t.Fatalf("dry run: %v", err)
		}
		for _, op := range []ckpt.FaultOp{ckpt.OpSave, ckpt.OpSaveDelta, ckpt.OpClearDeltas} {
			counts[op] = store.Ops(op)
		}
		if counts[ckpt.OpSave] < 2 || counts[ckpt.OpSaveDelta] == 0 || counts[ckpt.OpClearDeltas] < 2 {
			t.Fatalf("dry run exercised too little: %v", counts)
		}
	}

	type injection struct {
		op   ckpt.FaultOp
		torn bool
	}
	var cases []injection
	for _, op := range []ckpt.FaultOp{ckpt.OpSave, ckpt.OpSaveDelta, ckpt.OpClearDeltas} {
		cases = append(cases, injection{op, false})
	}
	cases = append(cases, injection{ckpt.OpSave, true}, injection{ckpt.OpSaveDelta, true})

	for _, inj := range cases {
		for n := 1; n <= counts[inj.op]; n++ {
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
				eng := deploy(t, &total, pp.Shared, pp.WithThreads(2),
					pp.WithStore(store), pp.WithDeltaCheckpoint(1, 3), pp.WithFailureAt(failAt, 0))
				// The run must end abnormally (the injected process failure,
				// or earlier, the injected store error aborting the run);
				// a torn write is silent, so there the process failure is
				// the only interruption.
				if err := eng.Run(); err == nil {
					t.Fatal("interrupted run reported success")
				}
				store.Disarm()

				eng2 := deploy(t, &total, pp.Shared, pp.WithThreads(2),
					pp.WithStore(store), pp.WithDeltaCheckpoint(1, 3))
				if err := eng2.Run(); err != nil {
					// One outcome is allowed to fail, and only loudly: a
					// torn write of the LAST canonical base (a non-atomic
					// store losing the anchor itself — the stock FS store's
					// rename atomicity rules this out). Torn deltas must
					// never surface: the chain truncates to the consistent
					// prefix instead.
					if inj.torn && inj.op == ckpt.OpSave && strings.Contains(err.Error(), "decode") {
						return
					}
					t.Fatalf("restart: %v", err)
				}
				if total != want {
					t.Fatalf("recovered total=%v want %v (inconsistent restart state)", total, want)
				}
			})
		}
	}
}

// TestAsyncDeltaAdaptStopHammer hammers the async delta pipeline with
// run-time adaptation and RequestStop arriving at varying moments, under
// the race detector in CI. Whenever the run stops, the drain-before-stop
// invariant must hold for the delta chain: the materialised chain is
// exactly the stop snapshot's safe point (a full snapshot written after
// the writer drained), never an older in-flight capture on top of it —
// and the relaunched engine must land on the uninterrupted result.
func TestAsyncDeltaAdaptStopHammer(t *testing.T) {
	want := run(t, pp.Sequential)
	for i := 0; i < 10; i++ {
		i := i
		t.Run(fmt.Sprintf("stop-after-%dus", 40*i), func(t *testing.T) {
			store := ckpt.NewMem()
			var total float64
			eng := deploy(t, &total, pp.Shared, pp.WithThreads(4),
				pp.WithStore(store),
				pp.WithDeltaCheckpoint(1, 3), pp.WithAsyncCheckpoint(),
				pp.WithAdaptPolicy(pp.AdaptAt(3, pp.AdaptTarget{Threads: 2})))
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(40*i) * time.Microsecond)
				eng.RequestStop()
			}()
			err := eng.Run()
			wg.Wait()
			var stopped *pp.ErrStopped
			switch {
			case err == nil:
				// The stop raced past the end of the run.
				if total != want {
					t.Fatalf("completed total=%v want %v", total, want)
				}
				return
			case errors.As(err, &stopped):
			default:
				t.Fatalf("run: %v", err)
			}

			snap, found, lerr := ckpt.LoadResume(store, "pp-counter")
			if lerr != nil || !found {
				t.Fatalf("chain after stop: found=%v err=%v", found, lerr)
			}
			if snap.SafePoints != stopped.SafePoint {
				t.Fatalf("materialised chain at sp %d, stop snapshot at %d: drain-before-stop violated",
					snap.SafePoints, stopped.SafePoint)
			}

			eng2 := deploy(t, &total, pp.Shared, pp.WithThreads(4),
				pp.WithStore(store),
				pp.WithDeltaCheckpoint(1, 3), pp.WithAsyncCheckpoint())
			if rerr := eng2.Run(); rerr != nil {
				t.Fatalf("restart: %v", rerr)
			}
			if total != want {
				t.Fatalf("resumed total=%v want %v", total, want)
			}
		})
	}
}

// stripe is a workload with mostly-stable safe data: a large state vector
// of which each iteration rewrites exactly one chunk (a moving stripe),
// plus a small always-changing field — the shape incremental checkpointing
// is built for.
type stripe struct {
	State []float64
	It    int

	iters int
	total *float64
}

func (s *stripe) Main(ctx *pp.Ctx) {
	ctx.Call("run", func(ctx *pp.Ctx) {
		chunks := len(s.State) / serial.DeltaChunkElems
		for it := 0; it < s.iters; it++ {
			s.It = it
			off := (it % chunks) * serial.DeltaChunkElems
			pp.ForSpan(ctx, "stripe", off, off+serial.DeltaChunkElems, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					s.State[i] = float64(it*1000 + i)
				}
			})
			ctx.Call("iter", func(*pp.Ctx) {})
		}
	})
	ctx.Call("report", func(*pp.Ctx) {
		sum := 0.0
		for _, v := range s.State {
			sum += v
		}
		*s.total = sum
	})
}

func stripeModules() []*pp.Module {
	return []*pp.Module{pp.NewModule("stripe/ckpt").
		SafeData("State").SafeData("It").
		SafePointAfter("iter")}
}

func runStripe(t *testing.T, iters int, opts ...pp.Option) (float64, pp.Report) {
	t.Helper()
	var total float64
	opts = append([]pp.Option{
		pp.WithName("pp-stripe"),
		pp.WithModules(stripeModules()...),
	}, opts...)
	eng, err := pp.New(func() pp.App {
		return &stripe{State: make([]float64, 8*serial.DeltaChunkElems), iters: iters, total: &total}
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return total, eng.Report()
}

// TestDeltaBytesSavings pins the acceptance criterion: on a mostly-stable
// workload, bytes written per checkpoint drop at least 3x against full
// snapshots — and the results stay identical.
func TestDeltaBytesSavings(t *testing.T) {
	const iters = 20
	store := pp.NewMemStore()
	fullTotal, fullRep := runStripe(t, iters, pp.WithStore(store), pp.WithCheckpointEvery(1))
	if fullRep.Checkpoints != iters {
		t.Fatalf("full run persisted %d checkpoints, want %d", fullRep.Checkpoints, iters)
	}
	if fullRep.DeltaSaves != 0 || fullRep.FullSaves != fullRep.Checkpoints {
		t.Fatalf("full run accounting off: %+v", fullRep)
	}
	fullSize := fullRep.SaveBytes // every full snapshot has the same payload size
	fullBytes := int64(fullSize) * int64(fullRep.Checkpoints)

	store2 := pp.NewMemStore()
	deltaTotal, deltaRep := runStripe(t, iters, pp.WithStore(store2), pp.WithDeltaCheckpoint(1, 8))
	if deltaTotal != fullTotal {
		t.Fatalf("delta run diverged: %v vs %v", deltaTotal, fullTotal)
	}
	if deltaRep.Checkpoints != iters {
		t.Fatalf("delta run persisted %d checkpoints, want %d", deltaRep.Checkpoints, iters)
	}
	if deltaRep.DeltaSaves == 0 || deltaRep.FullSaves < 2 {
		t.Fatalf("delta run accounting off (want deltas plus compactions): %+v", deltaRep)
	}
	deltaBytes := int64(fullSize)*int64(deltaRep.FullSaves) + int64(deltaRep.DeltaBytes)
	if deltaBytes*3 > fullBytes {
		t.Fatalf("delta checkpointing wrote %d bytes vs %d full (%.2fx), want >= 3x reduction",
			deltaBytes, fullBytes, float64(fullBytes)/float64(deltaBytes))
	}
	t.Logf("bytes per checkpoint: full=%d delta=%d (%.1fx reduction; %d full + %d delta saves)",
		fullBytes/iters, deltaBytes/iters, float64(fullBytes)/float64(deltaBytes),
		deltaRep.FullSaves, deltaRep.DeltaSaves)

	// And a kill mid-chain restarts to the exact uninterrupted result.
	var total float64
	eng, err := pp.New(func() pp.App {
		return &stripe{State: make([]float64, 8*serial.DeltaChunkElems), iters: iters, total: &total}
	}, pp.WithName("pp-stripe"), pp.WithModules(stripeModules()...),
		pp.WithStore(store2), pp.WithDeltaCheckpoint(1, 8), pp.WithFailureAt(iters-3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
		t.Fatalf("kill run: %v", err)
	}
	eng2, err := pp.New(func() pp.App {
		return &stripe{State: make([]float64, 8*serial.DeltaChunkElems), iters: iters, total: &total}
	}, pp.WithName("pp-stripe"), pp.WithModules(stripeModules()...),
		pp.WithStore(store2), pp.WithDeltaCheckpoint(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if total != fullTotal {
		t.Fatalf("restart after mid-chain kill: total=%v want %v", total, fullTotal)
	}
}

// TestDeltaShardConfigComposes pins the lifted exclusion: delta
// checkpointing now runs per shard chain (each rank keeps its own hash
// cache), and the accounting splits waves into anchors and delta links.
func TestDeltaShardConfigComposes(t *testing.T) {
	want := run(t, pp.Sequential)
	store := pp.NewMemStore()
	var total float64
	eng := deploy(t, &total, pp.Distributed, pp.WithProcs(2),
		pp.WithStore(store), pp.WithShardCheckpoints(), pp.WithDeltaCheckpoint(2, 2))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if rep.DeltaSaves == 0 || rep.FullSaves == 0 {
		t.Fatalf("sharded delta cadence did not split waves: %+v", rep)
	}
	if rep.ShardSaves != rep.Checkpoints*2 {
		t.Fatalf("per-rank link accounting off: %+v", rep)
	}
	if total != want {
		t.Fatalf("total=%v want %v", total, want)
	}
}

// TestDeltaRequiresEvery pins the zero-interval misconfiguration: delta
// checkpointing with every=0 would silently take no checkpoints at all, so
// it must fail loudly at New.
func TestDeltaRequiresEvery(t *testing.T) {
	_, err := pp.New(func() pp.App { return &counter{Out: make([]float64, 12), Blocks: 2} },
		pp.WithMode(pp.Shared), pp.WithThreads(2),
		pp.WithStore(pp.NewMemStore()), pp.WithDeltaCheckpoint(0, 4))
	if err == nil || !strings.Contains(err.Error(), "CheckpointEvery") {
		t.Fatalf("WithDeltaCheckpoint(0, ...) accepted: %v", err)
	}
}
