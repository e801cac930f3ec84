package pp_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"ppar/internal/jgf"
	"ppar/pp"
)

// Task-mode coverage: the work-stealing executor must be a drop-in fifth
// deployment — same results, same checkpoints, same migration surface — with
// the overdecomposition factor k a pure performance knob.

// TestTaskRestartAcrossOverdecompose kills a Task-mode run mid-chain and
// restarts it under a DIFFERENT chunking factor (and team size): k shapes the
// schedule, never the state, so every k lands on the sequential result.
func TestTaskRestartAcrossOverdecompose(t *testing.T) {
	want := run(t, pp.Sequential)
	for _, restartK := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("restart-k%d", restartK), func(t *testing.T) {
			store := pp.NewMemStore()
			var total float64
			eng := deploy(t, &total, pp.Task,
				pp.WithProcs(2), pp.WithThreads(2), pp.WithOverdecompose(8),
				pp.WithStore(store), pp.WithCheckpointEvery(2),
				pp.WithFailureAt(5, 0))
			if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
				t.Fatalf("first leg: %v, want injected failure", err)
			}
			eng2 := deploy(t, &total, pp.Task,
				pp.WithProcs(2), pp.WithThreads(3), pp.WithOverdecompose(restartK),
				pp.WithStore(store), pp.WithCheckpointEvery(2))
			if err := eng2.Run(); err != nil {
				t.Fatalf("restart with k=%d: %v", restartK, err)
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

// TestTaskShardedRestart runs the sharded pipeline with a Task-mode FIRST
// leg (per-rank shards record the chunk→rank boundaries in the manifest),
// kills it mid-chain, and restarts both same-topology (parallel per-rank
// restore) and into a different world (re-sharding restore).
func TestTaskShardedRestart(t *testing.T) {
	want := run(t, pp.Sequential)
	for _, target := range []struct {
		name string
		mode pp.Mode
		opts []pp.Option
	}{
		{"same-topology", pp.Task, []pp.Option{pp.WithProcs(2), pp.WithThreads(2), pp.WithOverdecompose(2)}},
		{"resized-dist3", pp.Distributed, []pp.Option{pp.WithProcs(3)}},
		{"smp", pp.Shared, []pp.Option{pp.WithThreads(2)}},
	} {
		t.Run(target.name, func(t *testing.T) {
			store := pp.NewMemStore()
			var total float64
			eng := deploy(t, &total, pp.Task,
				pp.WithProcs(2), pp.WithThreads(2), pp.WithOverdecompose(8),
				pp.WithStore(store), pp.WithShardCheckpoints(),
				pp.WithCheckpointEvery(2), pp.WithFailureAt(5, 1))
			if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
				t.Fatalf("task leg: %v, want injected failure", err)
			}
			if rep := eng.Report(); rep.Checkpoints == 0 || rep.ShardSaves == 0 {
				t.Fatalf("task leg committed no shard waves: %+v", rep)
			}
			opts := append(append([]pp.Option{}, target.opts...),
				pp.WithStore(store), pp.WithShardCheckpoints(), pp.WithCheckpointEvery(2))
			eng2 := deploy(t, &total, target.mode, opts...)
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

// TestTaskWorldResizeAbortsLoudly pins the executor contract: Task mode
// rebalances between its existing ranks and must reject an in-place world
// resize with an error naming the migration path.
func TestTaskWorldResizeAbortsLoudly(t *testing.T) {
	var total float64
	eng := deploy(t, &total, pp.Task, pp.WithProcs(2), pp.WithThreads(2),
		pp.WithAdaptPolicy(pp.AdaptAt(2, pp.AdaptTarget{Procs: 4})))
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "AdaptTarget.Mode") {
		t.Fatalf("want a loud no-resize error naming the migration path, got %v", err)
	}
}

// TestTaskThreadAdaptation: in-place team resizing stays available in Task
// mode (only the world is fixed).
func TestTaskThreadAdaptation(t *testing.T) {
	want := run(t, pp.Sequential)
	got := run(t, pp.Task, pp.WithProcs(2), pp.WithThreads(2),
		pp.WithAdaptPolicy(pp.AdaptAt(3, pp.AdaptTarget{Threads: 4})))
	if got != want {
		t.Fatalf("adapted total=%v want %v", got, want)
	}
}

// TestTaskThreadAdaptationIgnorableReplay pins the sequence-alignment half
// of the join protocol. A joining worker replays the region with ignorable
// methods skipped WHOLESALE, so the keyed loop instances inside them never
// consume its loop-sequence counter; without the activation-time alignment
// (Worker.AlignSeqs) the joiner would claim stale sequence keys and
// re-execute whole sweeps against current data. SOR is the shape that
// catches it: its red/black sweeps live inside ignorable calls.
func TestTaskThreadAdaptationIgnorableReplay(t *testing.T) {
	const n, iters = 64, 10
	want := jgf.SORReference(n, iters)
	res := &jgf.SORResult{}
	eng, err := pp.New(func() pp.App { return jgf.NewSOR(n, iters, res) },
		pp.WithName("pp-task-sor"), pp.WithMode(pp.Task),
		pp.WithThreads(2), pp.WithOverdecompose(8),
		pp.WithModules(jgf.SORModules(pp.Task)...),
		pp.WithAdaptPolicy(pp.AdaptAt(5, pp.AdaptTarget{Threads: 4})))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Gtotal != want {
		t.Fatalf("expanded Task run diverged: got %v want %v", res.Gtotal, want)
	}
}

// TestTaskSchedulerCounters: a Task run reports its chunk/steal/idle
// counters through Report and the metrics bridge, and RunStats carries the
// deterministic pair (Overdecompose, Rebalances) to policies.
func TestTaskSchedulerCounters(t *testing.T) {
	rec := &statsRecorder{}
	var total float64
	eng := deploy(t, &total, pp.Task, pp.WithThreads(4), pp.WithOverdecompose(5),
		pp.WithAdaptPolicy(rec))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if rep.TaskChunks == 0 {
		t.Fatalf("no chunks recorded: %+v", rep)
	}
	sched := rep.Sched()
	if sched.Chunks != rep.TaskChunks || sched.Steals != rep.Steals {
		t.Fatalf("metrics bridge disagrees with the report: %+v vs %+v", sched, rep)
	}
	if r := sched.StealRatio(); r < 0 || r > 1 {
		t.Fatalf("steal ratio %v out of range", r)
	}
	if len(rec.seen) == 0 {
		t.Fatal("policy never consulted")
	}
	for sp, s := range rec.seen {
		if s.Overdecompose != 5 {
			t.Fatalf("RunStats at sp %d carries k=%d, want the configured 5", sp, s.Overdecompose)
		}
	}
}

// skewApp is a deliberately imbalanced kernel: the first quarter of the
// Block-partitioned range costs ~20x the rest, so an even two-rank split
// leaves rank 0 doing almost all the work. Element values are pure functions
// of the index, so results are identical however ownership moves.
type skewApp struct {
	Out   []float64
	Iters int
	total *float64
}

func skewWork(i, n int) float64 {
	// Calibrated so BOTH ranks of an even two-rank split clear the
	// balancer's minimum-sample floor each iteration, with the hot quarter
	// still ~5x the rest.
	rounds := 20000
	if i < n/4 {
		rounds = 100000
	}
	v := 0.0
	for k := 0; k < rounds; k++ {
		v += math.Sqrt(float64(i + k))
	}
	return v
}

func (s *skewApp) Main(ctx *pp.Ctx) {
	ctx.Call("run", s.run)
	ctx.Call("report", func(ctx *pp.Ctx) {
		sum := 0.0
		for _, v := range s.Out {
			sum += v
		}
		*s.total = sum
	})
}

func (s *skewApp) run(ctx *pp.Ctx) {
	n := len(s.Out)
	for it := 0; it < s.Iters; it++ {
		pp.ForSpan(ctx, "cells", 0, n, func(a, b int) {
			for i := a; i < b; i++ {
				s.Out[i] += skewWork(i, n)
			}
		})
		ctx.Call("iter", func(*pp.Ctx) {})
	}
}

func skewModules() []*pp.Module {
	par := pp.NewModule("skew/par").
		ParallelMethod("run").
		PartitionedField("Out", pp.Block).
		LoopPartition("cells", "Out").
		GatherAfter("run", "Out").
		OnMaster("report")
	ck := pp.NewModule("skew/ckpt").
		SafeData("Out").
		SafePointAfter("iter")
	return []*pp.Module{par, ck}
}

func runSkew(t *testing.T, mode pp.Mode, opts ...pp.Option) (float64, *pp.Engine) {
	t.Helper()
	var total float64
	opts = append([]pp.Option{
		pp.WithName("pp-skew"), pp.WithMode(mode),
		pp.WithModules(skewModules()...),
	}, opts...)
	eng, err := pp.New(func() pp.App {
		return &skewApp{Out: make([]float64, 64), Iters: 6, total: &total}
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return total, eng
}

// TestTaskCrossRankRebalance drives the skewed kernel through a two-rank
// Task deployment: the balancer must observe the imbalance at a safe point,
// move Block boundary rows from the overloaded rank to the idle one, count
// the move in Report.Rebalances — and leave the result bit-identical to the
// sequential run.
func TestTaskCrossRankRebalance(t *testing.T) {
	want, _ := runSkew(t, pp.Sequential)
	got, eng := runSkew(t, pp.Task, pp.WithProcs(2), pp.WithThreads(2),
		pp.WithOverdecompose(4))
	if got != want {
		t.Fatalf("task total=%v want %v", got, want)
	}
	if eng.Report().Rebalances == 0 {
		t.Fatalf("skewed two-rank run never rebalanced: %+v", eng.Report())
	}
}

// TestTaskRebalanceThenCheckpointRestart checkpoints AFTER boundaries have
// moved and restarts in another mode: the canonical snapshot must capture
// the post-move state exactly (a stale-boundary gather would double- or
// zero-count moved rows).
func TestTaskRebalanceThenCheckpointRestart(t *testing.T) {
	want, _ := runSkew(t, pp.Sequential)
	store := pp.NewMemStore()
	var total float64
	eng, err := pp.New(func() pp.App {
		return &skewApp{Out: make([]float64, 64), Iters: 6, total: &total}
	}, pp.WithName("pp-skew"), pp.WithMode(pp.Task),
		pp.WithProcs(2), pp.WithThreads(2), pp.WithOverdecompose(4),
		pp.WithModules(skewModules()...),
		pp.WithStore(store), pp.WithCheckpointEvery(2), pp.WithFailureAt(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rerr := eng.Run(); !errors.Is(rerr, pp.ErrInjectedFailure) {
		t.Fatalf("first leg: %v, want injected failure", rerr)
	}
	eng2, err := pp.New(func() pp.App {
		return &skewApp{Out: make([]float64, 64), Iters: 6, total: &total}
	}, pp.WithName("pp-skew"), pp.WithMode(pp.Shared), pp.WithThreads(2),
		pp.WithModules(skewModules()...),
		pp.WithStore(store), pp.WithCheckpointEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	if rerr := eng2.Run(); rerr != nil {
		t.Fatalf("smp restart: %v", rerr)
	}
	if total != want {
		t.Fatalf("recovered total=%v want %v", total, want)
	}
}

// TestParseModeTask: the fifth mode round-trips through the string surface
// used by flags and the fleet spec.
func TestParseModeTask(t *testing.T) {
	m, err := pp.ParseMode("task")
	if err != nil || m != pp.Task {
		t.Fatalf("ParseMode(task) = %v, %v", m, err)
	}
	if s := pp.Task.String(); s != "task" {
		t.Fatalf("Task.String() = %q", s)
	}
}
