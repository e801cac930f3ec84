package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppar/internal/fleet"
	"ppar/pp"
)

// fleet-churn sizes. Each round runs the same multiset of jobs, in its own
// seeded order, twice: hosted by a fresh supervisor over a fresh store
// directory, and bare. A fresh supervisor per round keeps its journal, which
// holds every job it has seen, the same size in every round and run.
const (
	fleetRoundCycles = 1  // each round runs every spec this many times
	fleetClients     = 2  // closed loop: each client has one job in flight
	fleetChurnEvery  = 10 // completions between SetBudget calls
	fleetTenants     = 3
	fleetBudget      = 2
)

// fleetChurn is one supervisor over a dedup store on the filesystem, with
// budget 2, serving the four stock workloads: Shared jobs malleable (2
// threads, floor 1), Distributed jobs elastic (2 ranks, floor 1), each spec
// submitted by three tenants so their chunks dedup. Every fleetChurnEvery
// completions the budget alternates between 1 and 2. The bare control runs
// the same jobs through pp.New directly, checkpointing into a plain
// filesystem store, without supervisor, journal, dedup or budget. The
// hosted leg exercises fleet admission, the journal, scheduling, per-job
// engine set-up and teardown, suspend/relaunch restores and the dedup
// store's many small namespaced writes.
type fleetChurn struct {
	cfg   config
	chk   *checker
	specs []fleet.JobSpec   // every spec once
	refs  map[string]string // spec key -> digest of an uninterrupted run
	rng   *rand.Rand        // orders each round's jobs
	ready *fleetRound       // supervisor started at set-up, used by the first untraced round
	round int
}

// fleetRound is one supervisor with its store.
type fleetRound struct {
	sup     *fleet.Supervisor
	dir     string
	dedup   *pp.DedupStore
	startMs float64
}

func specKey(s fleet.JobSpec) string { return fmt.Sprintf("%s/%v", s.Workload, s.Mode) }

var fleetWorkloads = map[string]fleet.WorkloadFunc{
	"sor":   fleet.SORWorkload,
	"md":    fleet.MDWorkload,
	"crypt": fleet.CryptWorkload,
	"ea":    fleet.EAWorkload,
}

func newFleetChurn(cfg config, chk *checker) (workload, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	// Sizes give every job a few milliseconds of compute and one to three
	// checkpoints; the SOR grid (192×192) is large enough for the dedup
	// store to chunk.
	kinds := []fleet.JobSpec{
		{Workload: "sor", Params: map[string]int{"n": 192, "iters": 64}, CheckpointEvery: 32},
		{Workload: "md", Params: map[string]int{"n": 160, "steps": 16}, CheckpointEvery: 8},
		{Workload: "crypt", Params: map[string]int{"n": 1 << 16}, CheckpointEvery: 1},
		{Workload: "ea", Params: map[string]int{"dim": 16, "pop": 256, "gens": 48, "seed": 1 + rng.Intn(1<<20)}, CheckpointEvery: 24},
	}
	w := &fleetChurn{cfg: cfg, chk: chk, refs: map[string]string{}, rng: rng}
	for _, k := range kinds {
		for _, shape := range []struct {
			mode           pp.Mode
			threads, procs int
		}{{pp.Shared, 2, 1}, {pp.Distributed, 1, 2}} {
			s := k
			s.Mode, s.Threads, s.Procs = shape.mode, shape.threads, shape.procs
			s.MinThreads, s.MinProcs = 1, 1
			// Result digests do not depend on the deployment, so the
			// reference is the sequential run of the same workload.
			ref := s
			ref.Mode, ref.Threads, ref.Procs = pp.Sequential, 1, 1
			digest, err := runBare(nil, ref, nil, "")
			if err != nil {
				return nil, fmt.Errorf("reference run of %s: %w", specKey(s), err)
			}
			w.refs[specKey(s)] = digest
			for t := 0; t < fleetTenants; t++ {
				s.Tenant = fmt.Sprintf("tenant%d", t)
				w.specs = append(w.specs, s)
			}
		}
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	r, err := w.start(nil)
	if err != nil {
		return nil, err
	}
	w.ready = r
	return w, nil
}

// runBare runs a spec once, uninterrupted, and returns its result digest.
// With a store the run checkpoints into it under name at the spec's cadence.
func runBare(tr *tracer, spec fleet.JobSpec, store pp.Store, name string) (string, error) {
	inst, err := fleetWorkloads[spec.Workload](spec)
	if err != nil {
		return "", err
	}
	opts := []pp.Option{pp.WithMode(spec.Mode), pp.WithThreads(spec.Threads),
		pp.WithProcs(spec.Procs), pp.WithModules(inst.Modules...)}
	if store != nil {
		opts = append(opts, pp.WithName(name), pp.WithStore(store), pp.WithCheckpointEvery(spec.CheckpointEvery))
	}
	if _, err := solve(tr, inst.Factory, opts...); err != nil {
		return "", err
	}
	return inst.Result(), nil
}

// start builds and starts a supervisor over a fresh store directory. With a
// tracer, one timedStore wraps the dedup store and another sits between it
// and the filesystem store.
func (w *fleetChurn) start(tr *tracer) (*fleetRound, error) {
	dir := filepath.Join(w.cfg.dir, fmt.Sprintf("round%d", w.round))
	w.round++
	if err := freshDir(dir); err != nil {
		return nil, err
	}
	begin := time.Now()
	fs, err := pp.NewFSStore(dir)
	if err != nil {
		return nil, err
	}
	var inner pp.Store = fs
	if tr != nil {
		inner = wrapStore(fs, tr, false)
	}
	dedup := pp.NewDedupStore(inner)
	cfg := fleet.Config{Store: dedup, Budget: fleetBudget}
	if tr != nil {
		cfg.Store = wrapStore(dedup, tr, true)
		cfg.Logf = func(format string, args ...any) {
			if strings.Contains(format, "suspending") {
				tr.suspensions.Add(1)
			}
		}
	}
	sup, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	fleet.StockWorkloads(sup)
	if _, err := sup.Start(); err != nil {
		return nil, err
	}
	return &fleetRound{sup: sup, dir: dir, dedup: dedup, startMs: float64(time.Since(begin)) / 1e6}, nil
}

func (w *fleetChurn) close() {
	if w.ready != nil {
		w.ready.sup.Close()
		w.ready = nil
	}
}

// jobRecord is one completed hosted job as a client saw it.
type jobRecord struct {
	turnaround time.Duration
	report     *pp.Report
}

func (w *fleetChurn) measure(window time.Duration, tr *tracer) (*outcome, error) {
	var (
		jobs            []jobRecord
		rates, hostings []float64
		startMs         []float64
		last            *fleetRound
		rounds          int
		deadline        = time.Now().Add(window)
	)
	defer func() {
		if last != nil {
			last.sup.Close()
		}
	}()
	for rounds == 0 || time.Now().Before(deadline) {
		r := w.ready
		if r != nil && tr == nil {
			w.ready = nil
		} else {
			var err error
			if r, err = w.start(tr); err != nil {
				return nil, err
			}
			startMs = append(startMs, r.startMs)
		}
		if last != nil {
			last.sup.Close()
			if err := os.RemoveAll(last.dir); err != nil {
				return nil, err
			}
		}
		last = r
		if tr != nil {
			tr.op.Add(1)
		}
		seq := w.sequence()
		var hosted, bare time.Duration
		var recs []jobRecord
		for i := 0; i < 2; i++ {
			runtime.GC() // start every leg from the same heap state
			if (rounds+i)%2 == 0 {
				recs, hosted = w.serve(r.sup, seq, tr)
				if err := r.sup.Drain(context.Background()); err != nil {
					return nil, err
				}
			} else {
				var err error
				if bare, err = w.bare(seq, tr); err != nil {
					return nil, err
				}
			}
		}
		jobs = append(jobs, recs...)
		rates = append(rates, float64(len(recs))/hosted.Seconds())
		hostings = append(hostings, hosted.Seconds()/bare.Seconds())
		rounds++
	}
	last.sup.Close()
	files, storeBytes, err := dirUsage(last.dir)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, errors.New("no fleet job completed")
	}

	var turn, solveS, hosting, restarted, loads, replays []float64
	var saveTotal time.Duration
	var sps, ckpts, migs, resized, relaunched int
	for _, j := range jobs {
		turn = append(turn, float64(j.turnaround)/1e6)
		r := j.report
		if r == nil {
			continue
		}
		solveS = append(solveS, r.Elapsed.Seconds())
		hosting = append(hosting, float64(j.turnaround-r.Elapsed)/1e6)
		saveTotal += r.SaveTotal
		sps += int(r.SafePoints)
		ckpts += r.Checkpoints
		migs += r.Migrations
		if r.Adapted {
			resized++
		}
		if r.Restarted {
			relaunched++
			restarted = append(restarted, j.turnaround.Seconds())
			loads = append(loads, float64(r.LoadTotal)/1e6)
			replays = append(replays, float64(r.ReplayTime)/1e6)
		}
	}
	n := float64(len(jobs))
	o := &outcome{
		ops: len(jobs),
		e2e: map[string]float64{
			"ckpt_overhead_x":           1, // no uncheckpointed, invasive,
			"invasive_x":                1, // failing or unadapted leg here
			"recover_x":                 1,
			"adapt_overhead_x":          1,
			"hosting_x":                 median(hostings),
			"store_mb":                  float64(storeBytes) / 1e6,
			"abs.solve_s":               median(solveS),
			"abs.recover_s":             median(restarted),
			"abs.jobs_per_s":            median(rates),
			"abs.job_turnaround_ms.p50": quantile(turn, 0.5),
			"abs.job_turnaround_ms.p95": quantile(turn, 0.95),
		},
		layer: map[string]float64{
			"core.load_ms":          median(loads),
			"core.replay_ms":        median(replays),
			"core.safe_points":      float64(sps) / n,
			"core.checkpoints":      float64(ckpts) / n,
			"core.migrations":       float64(migs) / n,
			"fleet.start_ms":        median(startMs),
			"fleet.hosting_ms.p50":  quantile(hosting, 0.5),
			"fleet.resized_jobs":    float64(resized) / n,
			"fleet.relaunched_jobs": float64(relaunched) / n,
			"ckpt.files":            float64(files),
		},
	}
	if ckpts > 0 {
		o.layer["core.save_blocked_ms"] = float64(saveTotal) / 1e6 / float64(ckpts)
	}
	if tr != nil {
		st := last.dedup.Stats()
		o.layer["ckpt.save.calls"] = float64(tr.saveCalls.Load()) / n
		o.layer["fleet.suspensions"] = float64(tr.suspensions.Load()) / n
		o.layer["ckpt.dedup_ratio"] = st.Ratio()
		o.layer["ckpt.logical_mb"] = float64(st.LogicalBytes) / 1e6 / float64(fleetRoundCycles*len(w.specs))
	}
	return o, nil
}

// sequence is one round's jobs: every spec fleetRoundCycles times, shuffled.
func (w *fleetChurn) sequence() []fleet.JobSpec {
	var seq []fleet.JobSpec
	for c := 0; c < fleetRoundCycles; c++ {
		seq = append(seq, w.specs...)
	}
	w.rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// clients runs fleetClients closed-loop clients over seq: each takes the
// next job and runs it to completion before taking another. It returns the
// wall time until the last job finished.
func clients(seq []fleet.JobSpec, job func(spec fleet.JobSpec)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(seq)); i = next.Add(1) - 1 {
				job(seq[i])
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// serve is the hosted leg: each job is submitted to sup and waited for,
// while completions drive the budget churn.
func (w *fleetChurn) serve(sup *fleet.Supervisor, seq []fleet.JobSpec, tr *tracer) ([]jobRecord, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var (
		mu     sync.Mutex
		recs   []jobRecord
		done   int
		budget = fleetBudget
	)
	elapsed := clients(seq, func(spec fleet.JobSpec) {
		begin := time.Now()
		sid := tr.begin("fleet", "submit", spec.Tenant)
		id, err := sup.Submit(spec)
		tr.end(sid, 0, false, err)
		if err != nil {
			w.chk.expect(false, "fleet submit %s: %v", specKey(spec), err)
			return
		}
		wid := tr.begin("fleet", "wait", spec.Tenant)
		st, err := sup.WaitJob(ctx, id)
		tr.end(wid, 0, false, err)
		d := time.Since(begin)
		want := w.refs[specKey(spec)]
		ok := w.chk.expect(err == nil && st.State == fleet.Done && st.Result == want,
			"fleet job %d (%s): state %s, result %q, error %q, wait %v; want %q",
			id, specKey(spec), st.State, st.Result, st.Error, err, want)
		mu.Lock()
		defer mu.Unlock()
		if ok {
			recs = append(recs, jobRecord{turnaround: d, report: st.Report})
		}
		done++
		if done%fleetChurnEvery == 0 {
			budget = 3 - budget // alternate 1 <-> 2
			bid := tr.begin("fleet", "set_budget", "")
			sup.SetBudget(budget)
			tr.end(bid, 0, false, nil)
		}
	})
	if budget != fleetBudget {
		sup.SetBudget(fleetBudget)
	}
	return recs, elapsed
}

// bare is the control leg: the same jobs run directly as engines that
// checkpoint at the same cadence into a plain filesystem store, without
// supervisor, journal, dedup or budget, each checked against its reference.
func (w *fleetChurn) bare(seq []fleet.JobSpec, tr *tracer) (time.Duration, error) {
	dir := filepath.Join(w.cfg.dir, "bare")
	if err := freshDir(dir); err != nil {
		return 0, err
	}
	store, err := pp.NewFSStore(dir)
	if err != nil {
		return 0, err
	}
	var next atomic.Int64
	return clients(seq, func(spec fleet.JobSpec) {
		name := fmt.Sprintf("%s-job%d", spec.Tenant, next.Add(1))
		got, err := runBare(tr, spec, store, name)
		want := w.refs[specKey(spec)]
		w.chk.expect(err == nil && got == want, "bare %s: result %q, error %v; want %q", specKey(spec), got, err, want)
	}), nil
}
