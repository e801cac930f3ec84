// Command ppsor runs the JGF SOR benchmark under any deployment of the
// pluggable-parallelisation engine, with checkpointing (through any of the
// pluggable backends), failure injection and run-time adaptation available
// from the command line:
//
//	ppsor -mode seq -n 500 -iters 100
//	ppsor -mode smp -threads 8
//	ppsor -mode dist -procs 4 -ckpt /tmp/ck -every 10
//	ppsor -mode dist -procs 4 -ckpt /tmp/ck -every 10 -fail 25   # then re-run to recover
//	ppsor -mode dist -procs 4 -ckpt /tmp/ck -store gzip -every 10
//	ppsor -mode smp -threads 8 -ckpt /tmp/ck -every 10 -async     # non-blocking saves
//	ppsor -mode smp -threads 8 -ckpt /tmp/ck -every 10 -delta     # incremental saves
//	ppsor -mode smp -threads 4 -store mem -every 10 -stop-at 26  # stop+restart, no filesystem
//	ppsor -mode smp -threads 2 -adapt-at 50 -adapt-threads 8
//	ppsor -mode smp -threads 4 -adapt-at 50 -adapt-mode dist -adapt-procs 4  # live smp->dist migration
//	ppsor -mode dist -procs 2 -ckpt /tmp/ck -stop-at 26          # checkpoint & stop; re-run wider
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ppar/internal/jgf"
	"ppar/pp"
)

func main() { os.Exit(run()) }

func run() int {
	mode := flag.String("mode", "seq", "deployment: seq | smp | dist | hybrid")
	n := flag.Int("n", 500, "grid size")
	iters := flag.Int("iters", 100, "iterations")
	threads := flag.Int("threads", 4, "team size (smp/hybrid)")
	procs := flag.Int("procs", 4, "world size (dist/hybrid)")
	tcp := flag.Bool("tcp", false, "use the TCP transport")
	ckptDir := flag.String("ckpt", "", "checkpoint directory (enables checkpointing)")
	storeKind := flag.String("store", "fs", "checkpoint backend: fs | mem | gzip (mem and gzip-over-mem enable checkpointing without -ckpt)")
	every := flag.Uint64("every", 0, "checkpoint every N safe points")
	async := flag.Bool("async", false, "asynchronous double-buffered checkpointing (capture at the safe point, persist in the background)")
	delta := flag.Bool("delta", false, "incremental (delta) checkpointing: persist only changed fields/chunks, compacting every -compact deltas (pays off when much of the state is stable between checkpoints)")
	compact := flag.Int("compact", 8, "with -delta, number of deltas between full snapshots")
	shards := flag.Bool("shards", false, "per-rank shard checkpoints instead of gather-at-master (manifest-committed; composes with -async and -delta, and restarts re-shard into any -mode/-procs)")
	fail := flag.Uint64("fail", 0, "inject a failure at this safe point")
	failRank := flag.Int("fail-rank", 0, "rank that fails")
	stopAt := flag.Uint64("stop-at", 0, "checkpoint and stop at this safe point (adaptation by restart)")
	adaptAt := flag.Uint64("adapt-at", 0, "apply a run-time adaptation at this safe point")
	adaptThreads := flag.Int("adapt-threads", 0, "run-time adaptation target team size")
	adaptProcs := flag.Int("adapt-procs", 0, "run-time adaptation target world size")
	adaptMode := flag.String("adapt-mode", "", "run-time adaptation target mode (seq|smp|dist|hybrid): migrate the run to that deployment in-process at -adapt-at, without restarting")
	flag.Parse()

	m, err := pp.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	target := pp.AdaptTarget{Threads: *adaptThreads, Procs: *adaptProcs}
	if *adaptMode != "" {
		if target.Mode, err = pp.ParseMode(*adaptMode); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if *adaptAt == 0 {
			fmt.Fprintln(os.Stderr, "-adapt-mode needs -adapt-at to pick the migration safe point")
			return 2
		}
	}

	// A migrating run must carry the advice of every mode it may land in
	// (like a cross-mode restart): plug the full hybrid module set when an
	// in-process migration is requested.
	moduleMode := m
	if target.Mode != 0 {
		moduleMode = pp.Hybrid
	}
	opts := []pp.Option{
		pp.WithName("ppsor"),
		pp.WithMode(m),
		pp.WithThreads(*threads),
		pp.WithProcs(*procs),
		pp.WithModules(jgf.SORModules(moduleMode)...),
		pp.WithCheckpointEvery(*every),
		pp.WithFailureAt(*fail, *failRank),
		pp.WithAdaptPolicy(pp.StopAt(*stopAt)),
		pp.WithAdaptPolicy(pp.AdaptAt(*adaptAt, target)),
	}
	if *tcp {
		opts = append(opts, pp.WithTCP())
	}
	if *shards {
		opts = append(opts, pp.WithShardCheckpoints())
	}
	if *async {
		opts = append(opts, pp.WithAsyncCheckpoint())
	}
	if *delta {
		opts = append(opts, pp.WithDeltaCheckpoint(*every, *compact))
	}
	switch *storeKind {
	case "fs":
		if *ckptDir != "" {
			opts = append(opts, pp.WithCheckpointDir(*ckptDir))
		}
	case "mem":
		// An in-memory store lives only as long as this process: useful
		// with -stop-at/-fail only to measure protocol costs, since a
		// fresh process cannot see the snapshot.
		opts = append(opts, pp.WithStore(pp.NewMemStore()))
	case "gzip":
		var inner pp.Store
		if *ckptDir != "" {
			var err error
			if inner, err = pp.NewFSStore(*ckptDir); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		} else {
			inner = pp.NewMemStore()
		}
		opts = append(opts, pp.WithStore(pp.NewGzipStore(inner)))
	default:
		fmt.Fprintf(os.Stderr, "unknown -store %q (want fs, mem or gzip)\n", *storeKind)
		return 2
	}

	res := &jgf.SORResult{}
	eng, err := pp.New(func() pp.App { return jgf.NewSOR(*n, *iters, res) }, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	err = eng.Run()
	rep := eng.Report()
	var stopped *pp.ErrStopped
	switch {
	case err == nil:
		fmt.Printf("completed: Gtotal=%.12f safePoints=%d elapsed=%v\n",
			res.Gtotal, rep.SafePoints, rep.Elapsed)
	case errors.As(err, &stopped):
		fmt.Printf("checkpointed and stopped at safe point %d for adaptation by restart\n", stopped.SafePoint)
		return 0
	case errors.Is(err, pp.ErrInjectedFailure):
		fmt.Printf("failed at safe point %d (as requested); re-run to recover from the last checkpoint\n", *fail)
		return 0
	default:
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if rep.Restarted {
		fmt.Printf("recovered from checkpoint: replay=%v load=%v\n", rep.ReplayTime, rep.LoadTotal)
	}
	if rep.Migrations > 0 {
		fmt.Printf("migrated in-process: %d migration(s), now %s, blocked %v\n",
			rep.Migrations, *adaptMode, rep.MigrationTotal)
	} else if rep.Adapted {
		fmt.Println("run-time adaptation applied")
	}
	if rep.Checkpoints > 0 {
		fmt.Printf("checkpoints: %d (%d bytes, save total %v)\n", rep.Checkpoints, rep.SaveBytes, rep.SaveTotal)
	}
	if *async && (rep.Checkpoints > 0 || rep.Superseded > 0) {
		fmt.Printf("async: capture %v, background write %v, drain %v, superseded %d\n",
			rep.CaptureTotal, rep.AsyncSaveTotal, rep.DrainTotal, rep.Superseded)
	}
	if *delta && rep.Checkpoints > 0 {
		fmt.Printf("delta: %d full + %d delta saves, %d delta bytes\n",
			rep.FullSaves, rep.DeltaSaves, rep.DeltaBytes)
	}
	return 0
}
