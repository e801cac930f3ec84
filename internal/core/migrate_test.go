package core

import (
	"testing"
	"time"

	"ppar/internal/partition"
	"ppar/internal/team"
)

// isoApp re-initialises its SafeData field in place, in a method replay
// does not skip: every replay overwrites whatever array the instance holds.
// Handed one shared instance by its factory, a relaunch therefore rewrites
// the previous executor's live arrays before it reaches the replay target —
// exactly what a migration snapshot aliasing those arrays would not survive.
type isoApp struct {
	X     []float64
	iters int
	out   []float64
}

func (a *isoApp) Main(ctx *Ctx) {
	ctx.Call("init", func(*Ctx) {
		for i := range a.X {
			a.X[i] = float64(i)
		}
	})
	ctx.Call("run", a.run)
	ctx.Call("report", func(*Ctx) { a.out = append([]float64(nil), a.X...) })
}

func (a *isoApp) run(ctx *Ctx) {
	for it := 0; it < a.iters; it++ {
		ctx.Call("step", func(ctx *Ctx) {
			// Element-local updates: ranks sharing the instance write
			// disjoint owned blocks.
			ForSpan(ctx, "elems", 0, len(a.X), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					a.X[i] = a.X[i]*0.75 + float64((i+it)%7)
				}
			})
		})
		ctx.Call("iter", func(*Ctx) {})
	}
}

func isoModules() []*Module {
	return []*Module{
		NewModule("iso/smp").
			ParallelMethod("run").
			LoopSchedule("elems", team.Static, 1),
		NewModule("iso/dist").
			PartitionedField("X", partition.Block).
			LoopPartition("elems", "X").
			ScatterBefore("run", "X").
			GatherAfter("run", "X").
			OnMaster("init").
			OnMaster("report"),
		NewModule("iso/ckpt").
			SafeData("X").
			SafePointAfter("iter").
			Ignorable("step"),
	}
}

// runIso runs one deployment whose factory returns the same instance on
// every call, and returns what the master reported.
func runIso(t *testing.T, cfg Config) ([]float64, Report) {
	t.Helper()
	const n, iters = 37, 10
	cfg.AppName, cfg.Modules = "iso", isoModules()
	one := &isoApp{X: make([]float64, n), iters: iters}
	eng, err := New(cfg, func() App { return one })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run(%v): %v", cfg.Mode, err)
	}
	if len(one.out) != n {
		t.Fatalf("Run(%v) reported %d values, want %d", cfg.Mode, len(one.out), n)
	}
	return one.out, eng.Report()
}

// The migration hand-off must not alias the old executor's live arrays:
// with one application instance serving every launch, the relaunch's replay
// re-initialises X in place before the restore at the replay target reads
// the handed-over snapshot.
func TestMigrationSnapshotIsolatedFromLiveArrays(t *testing.T) {
	ref, _ := runIso(t, Config{Mode: Sequential})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"smp-to-seq", Config{Mode: Shared, Threads: 2,
			Policy: Schedule(AdaptStep{At: 4, Target: AdaptTarget{Mode: Sequential}})}},
		{"dist-to-smp", Config{Mode: Distributed, Procs: 2,
			Policy: Schedule(AdaptStep{At: 4, Target: AdaptTarget{Mode: Shared, Threads: 2}})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, rep := runIso(t, tc.cfg)
			if rep.Migrations != 1 {
				t.Fatalf("want 1 migration, got %+v", rep)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("X[%d] = %v, sequential reference %v: the replay overwrote the handed-over snapshot", i, got[i], ref[i])
				}
			}
		})
	}
}

// BenchmarkMigrate runs the 1024² stencil (the structure of JGF SOR) on a
// two-thread team, migrates it to two distributed ranks and back, and
// reports the mean blocked time per migration: capture, hand-off, executor
// rebuild, replay and restore.
func BenchmarkMigrate(b *testing.B) {
	const n, iters = 1024, 3
	for _, tcp := range []bool{false, true} {
		name := "inproc"
		if tcp {
			name = "tcp"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{
				AppName: "bench-migrate", Mode: Shared, Threads: 2, TCP: tcp,
				Modules: []*Module{stencilSMP(), stencilDist(), stencilCkpt()},
				Policy: Schedule(
					AdaptStep{At: 1, Target: AdaptTarget{Mode: Distributed, Procs: 2}},
					AdaptStep{At: 2, Target: AdaptTarget{Mode: Shared, Threads: 2}},
				),
			}
			sink := &resultSink{}
			var total time.Duration
			migrations := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := New(cfg, func() App { return newStencil(n, iters, sink) })
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				rep := eng.Report()
				if rep.Migrations != 2 {
					b.Fatalf("want 2 migrations, got %+v", rep)
				}
				total += rep.MigrationTotal
				migrations += rep.Migrations
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(migrations), "migration-ns/op")
		})
	}
}
