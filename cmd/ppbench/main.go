// Command ppbench regenerates the figures of the paper's evaluation
// section. Each figure can be produced from the calibrated analytic model
// at the paper's scale (default; see internal/perfmodel) or measured on the
// real engine at a reduced scale:
//
//	ppbench              # all figures, modelled
//	ppbench -fig 5       # one figure
//	ppbench -real        # real engine runs (scaled down)
//	ppbench -real -n 600 -iters 80 -maxpe 8
//	ppbench -csv         # machine-readable output
//	ppbench -json        # JSON tables (one document per figure)
//	ppbench -adapt-mode dist   # measure a live smp->dist in-process migration
//	ppbench -skew        # skewed kernels: static smp vs the Task executor
package main

import (
	"flag"
	"fmt"
	"os"

	"ppar/internal/figures"
	"ppar/internal/jgf"
	"ppar/internal/metrics"
	"ppar/pp"
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("ppbench", flag.ExitOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (3..9; 0 = all)")
	real := fs.Bool("real", false, "measure the real engine instead of the model")
	n := fs.Int("n", 400, "grid size for -real")
	iters := fs.Int("iters", 60, "iterations for -real")
	maxpe := fs.Int("maxpe", 8, "largest PE count for -real")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit JSON instead of aligned tables")
	dir := fs.String("ckptdir", "", "checkpoint directory for -real (default: temp)")
	storeKind := fs.String("store", "fs", "checkpoint backend for -real: fs | mem | gzip")
	async := fs.Bool("async", false, "asynchronous double-buffered checkpointing for -real")
	delta := fs.Bool("delta", false, "incremental (delta) checkpointing for -real")
	shards := fs.Bool("shards", false, "per-rank shard checkpoints for the distributed -real runs (composes with -async/-delta)")
	adaptMode := fs.String("adapt-mode", "", "instead of figures: measure a live in-process migration of a real SOR run from an smp(4) baseline to this mode (seq|dist|hybrid); the demo uses its own fixed workload, ignoring the figure/store flags except -n/-iters/-csv")
	adaptAt := fs.Uint64("adapt-at", 0, "safe point of the -adapt-mode migration (default: half the iterations)")
	skew := fs.Bool("skew", false, "instead of figures: run the skewed kernels (hot-key crypt, power-law sparse) under the static smp schedule and the Task work-stealing executor on the real engine; -maxpe sets the worker count")
	fs.Parse(os.Args[1:])

	emit := emitter(*csv, *jsonOut)
	if *adaptMode != "" {
		return migrationDemo(*adaptMode, *adaptAt, *n, *iters, emit)
	}
	if *skew {
		return skewDemo(*maxpe, emit)
	}

	scale := figures.RealScale{N: *n, Iters: *iters, MaxPE: *maxpe, Dir: *dir, Async: *async, Delta: *delta, Shards: *shards}
	if scale.Dir == "" {
		tmp, err := os.MkdirTemp("", "ppbench-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(tmp)
		scale.Dir = tmp
	}
	switch *storeKind {
	case "fs":
		// Default: the engine builds a filesystem store in scale.Dir.
	case "mem":
		scale.Store = pp.NewMemStore()
	case "gzip":
		fsStore, err := pp.NewFSStore(scale.Dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		scale.Store = pp.NewGzipStore(fsStore)
	default:
		fmt.Fprintf(os.Stderr, "unknown -store %q (want fs, mem or gzip)\n", *storeKind)
		return 2
	}

	type gen struct {
		id    int
		model func() *metrics.Table
		real  func(figures.RealScale) (*metrics.Table, error)
	}
	gens := []gen{
		{3, figures.Fig3Model, figures.Fig3Real},
		{4, figures.Fig4Model, figures.Fig4Real},
		{5, figures.Fig5Model, figures.Fig5Real},
		{6, figures.Fig6Model, figures.Fig6Real},
		{7, figures.Fig7Model, figures.Fig7Real},
		{8, figures.Fig8Model, figures.Fig8Real},
		{9, figures.Fig9Model, figures.Fig9Real},
	}
	for _, g := range gens {
		if *fig != 0 && g.id != *fig {
			continue
		}
		var tbl *metrics.Table
		if *real {
			var err error
			tbl, err = g.real(scale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figure %d: %v\n", g.id, err)
				return 1
			}
		} else {
			tbl = g.model()
		}
		emit(tbl)
		fmt.Println()
	}
	return 0
}

// migrationDemo measures a live in-process cross-mode migration on the real
// engine: a Shared-mode SOR run migrates to the target deployment at a safe
// point mid-run, and the table compares it against the unmigrated run —
// adaptation-by-restart (Figures 6 and 7) collapsed into one process.
// emitter picks the table output format; -json wins over -csv.
func emitter(csv, jsonOut bool) func(*metrics.Table) {
	switch {
	case jsonOut:
		return func(tbl *metrics.Table) {
			if err := tbl.FprintJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	case csv:
		return func(tbl *metrics.Table) { tbl.FprintCSV(os.Stdout) }
	default:
		return func(tbl *metrics.Table) { tbl.Fprint(os.Stdout) }
	}
}

// skewDemo runs the two deliberately imbalanced kernels — hot-key IDEA crypt
// and the power-law-banded sparse matmul — under the skew-blind static smp
// schedule and under the Task executor (overdecomposition k=8, per-worker
// deques with stealing), and tabulates elapsed time, scheduler counters and
// the speedup. Wall-clock separation needs real cores: at GOMAXPROCS=1 both
// schedules serialize the same total work and the speedup hovers around
// 1.0x.
func skewDemo(pe int, emit func(*metrics.Table)) int {
	const k = 8
	run := func(name string, mode pp.Mode, modules []*pp.Module, factory pp.Factory, opts ...pp.Option) (pp.Report, error) {
		all := append([]pp.Option{
			pp.WithName(name), pp.WithMode(mode), pp.WithModules(modules...),
		}, opts...)
		eng, err := pp.New(factory, all...)
		if err != nil {
			return pp.Report{}, err
		}
		if err := eng.Run(); err != nil {
			return pp.Report{}, err
		}
		return eng.Report(), nil
	}
	kernels := []struct {
		name   string
		static []*pp.Module
		task   []*pp.Module
		leg    func(name string, mode pp.Mode, modules []*pp.Module, opts ...pp.Option) (pp.Report, float64, error)
	}{
		{
			name:   "crypt (hot first eighth)",
			static: []*pp.Module{jgf.CryptSharedModule(), jgf.CryptCheckpointModule()},
			task:   jgf.CryptModules(pp.Task),
			leg: func(name string, mode pp.Mode, modules []*pp.Module, opts ...pp.Option) (pp.Report, float64, error) {
				res := &jgf.CryptResult{}
				rep, err := run(name, mode, modules, func() pp.App {
					return jgf.NewCryptSkewed(256*1024, 16, res)
				}, opts...)
				if err == nil && !res.OK {
					err = fmt.Errorf("crypt round-trip failed validation")
				}
				return rep, float64(res.Checksum), err
			},
		},
		{
			name:   "sparse (power-law rows)",
			static: []*pp.Module{jgf.SparseSharedStaticModule(), jgf.SparseCheckpointModule()},
			task:   jgf.SparseModules(pp.Task),
			leg: func(name string, mode pp.Mode, modules []*pp.Module, opts ...pp.Option) (pp.Report, float64, error) {
				res := &jgf.SparseResult{}
				rep, err := run(name, mode, modules, func() pp.App {
					return jgf.NewSparseSkewed(2048, 4, 10, res)
				}, opts...)
				return rep, res.Ytotal, err
			},
		},
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("Skewed kernels: static smp vs Task executor (%d workers, k=%d)", pe, k),
		"kernel", "schedule", "elapsed", "chunks", "steals", "rebalances", "speedup", "identical")
	for _, kr := range kernels {
		smpRep, smpVal, err := kr.leg("ppbench-skew", pp.Shared, kr.static, pp.WithThreads(pe))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s smp: %v\n", kr.name, err)
			return 1
		}
		taskRep, taskVal, err := kr.leg("ppbench-skew", pp.Task, kr.task,
			pp.WithThreads(pe), pp.WithOverdecompose(k))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s task: %v\n", kr.name, err)
			return 1
		}
		tbl.AddRow(kr.name, "smp-static", smpRep.Elapsed, "-", "-", "-", "1.00x", "-")
		tbl.AddRow(kr.name, "task", taskRep.Elapsed,
			taskRep.TaskChunks, taskRep.Steals, taskRep.Rebalances,
			fmt.Sprintf("%.2fx", float64(smpRep.Elapsed)/float64(taskRep.Elapsed)),
			fmt.Sprintf("%v", taskVal == smpVal))
		if taskVal != smpVal {
			fmt.Fprintf(os.Stderr, "%s: the Task schedule changed the result\n", kr.name)
			return 1
		}
	}
	emit(tbl)
	return 0
}

func migrationDemo(modeName string, at uint64, n, iters int, emit func(*metrics.Table)) int {
	target, err := pp.ParseMode(modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if target == pp.Shared {
		fmt.Fprintln(os.Stderr, "the migration demo baseline is smp; pick -adapt-mode seq, dist or hybrid")
		return 2
	}
	if at == 0 {
		at = uint64(iters / 2)
	}
	run := func(opts ...pp.Option) (float64, pp.Report, error) {
		res := &jgf.SORResult{}
		// The full (hybrid) module set: a migrating run must carry the
		// advice of every mode it may land in, exactly as a cross-mode
		// restart needs the target mode's modules plugged.
		all := append([]pp.Option{
			pp.WithName("ppbench-migrate"),
			pp.WithMode(pp.Shared), pp.WithThreads(4),
			pp.WithModules(jgf.SORModules(pp.Hybrid)...),
		}, opts...)
		eng, err := pp.New(func() pp.App { return jgf.NewSOR(n, iters, res) }, all...)
		if err != nil {
			return 0, pp.Report{}, err
		}
		err = eng.Run()
		return res.Gtotal, eng.Report(), err
	}
	baseTotal, baseRep, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	migTotal, migRep, err := run(pp.WithAdaptPolicy(pp.AdaptAt(at, pp.AdaptTarget{Mode: target, Procs: 4, Threads: 4})))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if migRep.Migrations != 1 {
		fmt.Fprintf(os.Stderr, "no migration happened (target %s from a smp baseline at safe point %d of %d): %d migrations\n",
			target, at, iters, migRep.Migrations)
		return 1
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("In-process migration smp->%s at safe point %d (SOR %dx%d, %d iters)", target, at, n, n, iters),
		"run", "elapsed", "migrations", "migration-blocked", "identical")
	tbl.AddRow("smp (baseline)", baseRep.Elapsed, baseRep.Migrations, baseRep.MigrationTotal, "-")
	tbl.AddRow(fmt.Sprintf("smp->%s", target), migRep.Elapsed, migRep.Migrations, migRep.MigrationTotal,
		fmt.Sprintf("%v", migTotal == baseTotal))
	emit(tbl)
	if migTotal != baseTotal {
		fmt.Fprintln(os.Stderr, "migration changed the result")
		return 1
	}
	return 0
}
