package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ppar/internal/jgf"
	"ppar/internal/serial"
	"ppar/pp"
)

// sor-adapt runs 100 sweeps of the same grid as sor-ckpt.
const adaptIters = 100

// sorAdapt starts SOR as two distributed ranks over TCP and migrates it
// dist2 -> Task (2 workers, k = 8) -> Shared (1 thread), grows the team to
// 2 threads in place, then migrates back to dist2, against the unadapted
// dist2 control in the same round. It exercises mp (a halo exchange every
// half-sweep), team (For, ForTask, stealing) and core migration and replay.
// It has no persistent store: migrations go through the engine's internal
// in-memory snapshot.
type sorAdapt struct {
	chk    *checker
	ref    float64
	steps  []pp.AdaptStep
	snapMB float64 // encoded size of the canonical snapshot a migration parks
	round  int
}

func newSORAdapt(cfg config, chk *checker) (workload, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	targets := []pp.AdaptTarget{
		{Mode: pp.Task, Threads: 2, Procs: 1},
		{Mode: pp.Shared, Threads: 1},
		{Threads: 2},
		{Mode: pp.Distributed, Threads: 1, Procs: 2},
	}
	// The steps land at 20, 40, 45 and 60 of the 100 sweeps, all moved by
	// one seed-chosen shift of -5..4, so every seed spends the same number
	// of sweeps in each shape. The one-thread phase is kept short: the
	// control runs two-wide throughout, and a long one-wide phase would make
	// the ratio follow how much of the second CPU the machine grants.
	at := []int{20, 40, 45, 60}
	shift := rng.Intn(10) - 5
	w := &sorAdapt{chk: chk, round: rng.Intn(2)}
	for k, t := range targets {
		w.steps = append(w.steps, pp.AdaptStep{At: uint64(at[k] + shift), Target: t})
	}
	w.ref = jgf.SORReference(sorN, adaptIters)

	snap := serial.NewSnapshot("sor", pp.Distributed.String(), 0)
	snap.Fields["G"] = serial.Float64Matrix(jgf.NewSOR(sorN, adaptIters, nil).G)
	var cw countingWriter
	if err := snap.Encode(&cw); err != nil {
		return nil, err
	}
	w.snapMB = float64(cw) / 1e6
	return w, nil
}

func (w *sorAdapt) close() {}

func (w *sorAdapt) measure(window time.Duration, tr *tracer) (*outcome, error) {
	var (
		adaptive, control []time.Duration
		perMigration      []float64
		migTotal          time.Duration
		migs, rounds      int
		steals, idle      int64
		exact             exactTracker
		deadline          = time.Now().Add(window)
	)
	for rounds == 0 || time.Now().Before(deadline) {
		var cnt exactCounts
		var msgs0, bytes0 int64
		if tr != nil {
			msgs0, bytes0 = tr.mpMsgs.Load(), tr.mpBytes.Load()
		}
		var times [2]time.Duration // adaptive, control
		failed := false
		for i := 0; i < 2; i++ {
			adapt := (w.round+i)%2 == 0
			if tr != nil {
				tr.op.Add(1)
			}
			d, rep, err := w.solve(adapt, tr)
			if !w.chk.expect(err == nil, "sor-adapt solve (adaptive %v): %v", adapt, err) {
				failed = true
				continue
			}
			cnt.SafePoints += int(rep.SafePoints)
			cnt.Checkpoints += rep.Checkpoints
			cnt.Migrations += rep.Migrations
			cnt.TaskChunks += rep.TaskChunks
			if adapt {
				times[0] = d
				perMigration = append(perMigration, rep.MigrationTotal.Seconds()/float64(rep.Migrations))
				migTotal += rep.MigrationTotal
				migs += rep.Migrations
				steals += rep.Steals
				idle += rep.StealIdle
			} else {
				times[1] = d
			}
		}
		w.round++
		rounds++
		if failed {
			continue
		}
		adaptive = append(adaptive, times[0])
		control = append(control, times[1])
		if tr != nil {
			cnt.MPMsgs, cnt.MPBytes = tr.mpMsgs.Load()-msgs0, tr.mpBytes.Load()-bytes0
		}
		exact.check(w.chk, cnt)
	}
	if len(adaptive) == 0 {
		return nil, errors.New("no sor-adapt round completed")
	}
	all := append(append([]time.Duration(nil), adaptive...), control...)
	var busy time.Duration
	for _, d := range all {
		busy += d
	}
	n := len(adaptive)
	o := &outcome{
		ops: n,
		e2e: map[string]float64{
			"ckpt_overhead_x":           1, // this workload takes no checkpoint,
			"invasive_x":                1, // has no invasive counterpart,
			"recover_x":                 1, // injects no failure
			"adapt_overhead_x":          median(ratios(adaptive, control)),
			"hosting_x":                 1, // and runs under no supervisor
			"store_mb":                  w.snapMB,
			"abs.solve_s":               median(secs(adaptive)),
			"abs.recover_s":             median(perMigration),
			"abs.jobs_per_s":            float64(len(all)) / busy.Seconds(),
			"abs.job_turnaround_ms.p50": quantile(millis(all), 0.5),
			"abs.job_turnaround_ms.p95": quantile(millis(all), 0.95),
		},
		layer: map[string]float64{
			"team.steals":     float64(steals) / float64(n),
			"team.steal_idle": float64(idle) / float64(n),
		},
	}
	if migs > 0 {
		o.layer["core.migration_ms"] = float64(migTotal) / 1e6 / float64(migs)
	}
	if steals+idle > 0 {
		o.layer["team.steal_hit_ratio"] = float64(steals) / float64(steals+idle)
	}
	exact.layer(o.layer)
	return o, nil
}

// solve runs one distributed SOR over TCP, adapting on the seed's schedule
// or not at all. A result that differs from the sequential reference, or an
// adaptive run that did not migrate at every mode-changing step, is an error.
func (w *sorAdapt) solve(adapt bool, tr *tracer) (time.Duration, pp.Report, error) {
	res := &jgf.SORResult{}
	factory := func() pp.App { return jgf.NewSOR(sorN, adaptIters, res) }
	opts := []pp.Option{
		pp.WithName("sor"),
		pp.WithMode(pp.Distributed), pp.WithProcs(2), pp.WithTCP(),
		pp.WithOverdecompose(8),
		pp.WithModules(jgf.SORModules(pp.Task)...),
	}
	if adapt {
		opts = append(opts, pp.WithAdaptPolicy(pp.Schedule(w.steps...)))
	}
	if tr != nil {
		opts = append(opts, pp.WithDelay(tr.countMessage))
	}
	runtime.GC() // start every solve from the same heap state
	start := time.Now()
	rep, err := solve(tr, factory, opts...)
	d := time.Since(start)
	tr.recordCount("team", "task_chunks", start, d, rep.TaskChunks)
	tr.recordCount("team", "steals", start, d, rep.Steals)
	tr.recordCount("team", "steal_idle", start, d, rep.StealIdle)
	switch {
	case err != nil:
		return 0, rep, err
	case res.Gtotal != w.ref:
		return 0, rep, fmt.Errorf("Gtotal %v, reference %v", res.Gtotal, w.ref)
	case adapt && rep.Migrations != len(w.steps)-1:
		return 0, rep, fmt.Errorf("%d migrations, want %d", rep.Migrations, len(w.steps)-1)
	}
	return d, rep, nil
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
