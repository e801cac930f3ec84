package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ppar/internal/jgf"
	"ppar/internal/jgf/invasive"
	"ppar/pp"
)

// Sizes shared by both SOR workloads. A 1024×1024 float64 grid is 8 MiB:
// larger than a 4 MiB L2, well inside a 105 MiB L3 (see NOTES.md).
const sorN = 1024

// sor-ckpt sizes: 60 sweeps, a full synchronous checkpoint every 20. Short
// legs give a window many rounds to take medians over; three 8 MiB saves a
// solve keep disk-speed drift, which the unplugged control does not share,
// from dominating ckpt_overhead_x.
const (
	ckptIters = 60
	ckptEvery = 20
)

// The four legs of a sor-ckpt round.
const (
	legUnplugged = iota // no checkpoint module
	legPluggable        // checkpoint module, FS store
	legInvasive         // checkpoint code inside the kernel
	legRestart          // injected failure, then a fresh engine restarts
	numLegs
)

var legNames = [numLegs]string{"unplugged", "pluggable", "invasive", "restart"}

// sorCkpt is the paper's Fig. 3-5 path: sequential SOR with and without
// pluggable checkpointing, against the invasive version, plus failure and
// restart. It exercises core's save protocol, serial encode/decode, the FS
// store's fsyncs and restart replay; mp, team, dedup and fleet do no work.
type sorCkpt struct {
	cfg    config
	chk    *checker
	ref    float64
	failAt uint64 // safe point of the injected failure, seed-chosen
	round  int    // rotates the leg order
}

func newSORCkpt(cfg config, chk *checker) (workload, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	// The failure lands in the last quarter, in the first half of the
	// interval after its last checkpoint, so every seed loses and replays a
	// similar amount of work.
	lastCkpt := ckptIters - ckptEvery
	failAt := lastCkpt + ckptEvery/4 + rng.Intn(ckptEvery/4)
	w := &sorCkpt{cfg: cfg, chk: chk, failAt: uint64(failAt), round: rng.Intn(numLegs)}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	w.ref = jgf.SORReference(sorN, ckptIters)
	return w, nil
}

func (w *sorCkpt) close() {}

func (w *sorCkpt) measure(window time.Duration, tr *tracer) (*outcome, error) {
	var (
		legs           [numLegs][]time.Duration
		exact          exactTracker
		loads, replays []float64
		saveTotal      time.Duration
		saves, rounds  int
		deadline       = time.Now().Add(window)
	)
	for rounds == 0 || time.Now().Before(deadline) {
		var cnt exactCounts
		saveCalls := savesSoFar(tr)
		var times [numLegs]time.Duration
		failed := false
		for i := 0; i < numLegs; i++ {
			kind := (w.round + i) % numLegs
			if tr != nil {
				tr.op.Add(1)
			}
			d, reps, err := w.leg(kind, tr)
			if !w.chk.expect(err == nil, "sor-ckpt %s leg: %v", legNames[kind], err) {
				failed = true
				continue
			}
			times[kind] = d
			for _, r := range reps {
				cnt.SafePoints += int(r.SafePoints)
				cnt.Checkpoints += r.Checkpoints
				cnt.Migrations += r.Migrations
				saveTotal += r.SaveTotal
				saves += r.Checkpoints
				if r.Restarted {
					loads = append(loads, float64(r.LoadTotal)/1e6)
					replays = append(replays, float64(r.ReplayTime)/1e6)
				}
			}
		}
		w.round++
		rounds++
		if failed {
			continue
		}
		for k := range times {
			legs[k] = append(legs[k], times[k])
		}
		cnt.SaveCalls = savesSoFar(tr) - saveCalls
		exact.check(w.chk, cnt)
	}
	if len(legs[legPluggable]) == 0 {
		return nil, errors.New("no sor-ckpt round completed")
	}
	files, storeBytes, err := dirUsage(filepath.Join(w.cfg.dir, legNames[legPluggable]))
	if err != nil {
		return nil, err
	}
	var all []time.Duration
	var busy time.Duration
	for _, l := range legs {
		all = append(all, l...)
		for _, d := range l {
			busy += d
		}
	}
	o := &outcome{
		ops: len(legs[legPluggable]),
		e2e: map[string]float64{
			"ckpt_overhead_x":           median(ratios(legs[legPluggable], legs[legUnplugged])),
			"invasive_x":                median(ratios(legs[legPluggable], legs[legInvasive])),
			"recover_x":                 median(ratios(legs[legRestart], legs[legPluggable])),
			"adapt_overhead_x":          1, // this workload never adapts
			"hosting_x":                 1, // nor runs under a supervisor
			"store_mb":                  float64(storeBytes) / 1e6,
			"abs.solve_s":               median(secs(legs[legPluggable])),
			"abs.recover_s":             median(secs(legs[legRestart])),
			"abs.jobs_per_s":            float64(len(all)) / busy.Seconds(),
			"abs.job_turnaround_ms.p50": quantile(millis(all), 0.5),
			"abs.job_turnaround_ms.p95": quantile(millis(all), 0.95),
		},
		layer: map[string]float64{
			"core.load_ms":   median(loads),
			"core.replay_ms": median(replays),
			"ckpt.files":     float64(files),
		},
	}
	if saves > 0 {
		o.layer["core.save_blocked_ms"] = float64(saveTotal) / 1e6 / float64(saves)
	}
	exact.layer(o.layer)
	return o, nil
}

// leg runs one leg in a fresh store directory; a result that differs from
// the sequential reference is an error. The time covers building the engine
// (or the invasive kernel) through the result.
func (w *sorCkpt) leg(kind int, tr *tracer) (time.Duration, []pp.Report, error) {
	dir := filepath.Join(w.cfg.dir, legNames[kind])
	if err := freshDir(dir); err != nil {
		return 0, nil, err
	}
	runtime.GC() // start every leg from the same heap state
	res := &jgf.SORResult{}
	factory := func() pp.App { return jgf.NewSOR(sorN, ckptIters, res) }
	ckptOpts := func(extra ...pp.Option) ([]pp.Option, error) {
		store, err := pp.NewFSStore(dir)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			store = wrapStore(store, tr, true)
		}
		return append([]pp.Option{
			pp.WithName("sor"),
			pp.WithModules(jgf.SORModules(pp.Sequential)...),
			pp.WithStore(store),
			pp.WithCheckpointEvery(ckptEvery),
		}, extra...), nil
	}

	start := time.Now()
	var reps []pp.Report
	switch kind {
	case legUnplugged:
		rep, err := solve(tr, factory)
		if err != nil {
			return 0, nil, err
		}
		reps = append(reps, rep)
	case legPluggable:
		opts, err := ckptOpts()
		if err != nil {
			return 0, nil, err
		}
		rep, err := solve(tr, factory, opts...)
		if err != nil {
			return 0, nil, err
		}
		reps = append(reps, rep)
	case legInvasive:
		inv := invasive.New(sorN, ckptIters)
		if err := inv.EnableCheckpoints(dir, ckptEvery, 0); err != nil {
			return 0, nil, err
		}
		if err := inv.Run(); err != nil {
			return 0, nil, err
		}
		res.Gtotal = inv.Gtotal()
	case legRestart:
		opts, err := ckptOpts(pp.WithFailureAt(w.failAt, 0))
		if err != nil {
			return 0, nil, err
		}
		rep, err := solve(tr, factory, opts...)
		if !errors.Is(err, pp.ErrInjectedFailure) {
			return 0, nil, fmt.Errorf("failure at safe point %d did not fire: %v", w.failAt, err)
		}
		reps = append(reps, rep)
		if opts, err = ckptOpts(); err != nil {
			return 0, nil, err
		}
		if rep, err = solve(tr, factory, opts...); err != nil {
			return 0, nil, err
		}
		if !rep.Restarted {
			return 0, nil, errors.New("the second engine did not restart from the checkpoint")
		}
		reps = append(reps, rep)
	}
	d := time.Since(start)
	if res.Gtotal != w.ref {
		return 0, nil, fmt.Errorf("Gtotal %v, reference %v", res.Gtotal, w.ref)
	}
	return d, reps, nil
}

// solve builds an engine and runs it to completion, with core spans around
// pp.New and Run.
func solve(tr *tracer, factory pp.Factory, opts ...pp.Option) (pp.Report, error) {
	id := tr.begin("core", "new", "")
	eng, err := pp.New(factory, opts...)
	tr.end(id, 0, false, err)
	if err != nil {
		return pp.Report{}, err
	}
	id = tr.begin("core", "run", "")
	err = eng.Run()
	tr.end(id, 0, false, err)
	return eng.Report(), err
}

func savesSoFar(tr *tracer) int64 {
	if tr == nil {
		return 0
	}
	return tr.saveCalls.Load()
}
