package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ppar/pp"
)

// slowApp is the test workload: the pp_test counter (accumulate i² over a
// partitioned range, one safe point per block) with a per-cell sleep, so
// tests can pin jobs in the Running state long enough to observe
// scheduling decisions at any thread count. Pad is constant ballast that
// makes the checkpointed state big enough for a dedup store to chunk.
type slowApp struct {
	Out    []float64
	Blocks int
	Pad    []float64

	delay time.Duration
	total *float64
}

func (c *slowApp) Main(ctx *pp.Ctx) {
	ctx.Call("run", c.run)
	ctx.Call("report", func(ctx *pp.Ctx) {
		sum := 0.0
		for _, v := range c.Out {
			sum += v
		}
		*c.total = sum
	})
}

func (c *slowApp) run(ctx *pp.Ctx) {
	n := len(c.Out)
	per := n / c.Blocks
	for b := 0; b < c.Blocks; b++ {
		lo, hi := b*per, (b+1)*per
		if b == c.Blocks-1 {
			hi = n
		}
		pp.ForSpan(ctx, "cells", lo, hi, func(a, z int) {
			for i := a; i < z; i++ {
				if c.delay > 0 {
					time.Sleep(c.delay)
				}
				c.Out[i] = float64(i) * float64(i)
			}
		})
		ctx.Call("block", func(*pp.Ctx) {})
	}
}

func slowModules(mode pp.Mode) []*pp.Module {
	par := pp.NewModule("slow/par").
		ParallelMethod("run").
		PartitionedField("Out", pp.Block).
		LoopPartition("cells", "Out").
		GatherAfter("run", "Out").
		OnMaster("report").
		LoopSchedule("cells", pp.Dynamic, 1)
	ck := pp.NewModule("slow/ckpt").
		SafeData("Out").
		SafePointAfter("block")
	if mode == pp.Sequential {
		return []*pp.Module{ck}
	}
	return []*pp.Module{par, ck}
}

// slowWorkload instantiates slowApp from spec params: cells (40), blocks
// (10), delay_us (0), pad (0: no ballast field).
func slowWorkload(spec JobSpec) (*Instance, error) {
	blocks := param(spec, "blocks", 10)
	cells := param(spec, "cells", 40)
	delay := time.Duration(param(spec, "delay_us", 0)) * time.Microsecond
	pad := param(spec, "pad", 0)
	mods := slowModules(spec.Mode)
	if pad > 0 {
		mods = append(mods, pp.NewModule("slow/pad").SafeData("Pad"))
	}
	if blocks < 1 || cells < blocks {
		return nil, fmt.Errorf("fleet test: bad slow params blocks=%d cells=%d", blocks, cells)
	}
	var total float64
	return &Instance{
		Factory: func() pp.App {
			app := &slowApp{Out: make([]float64, cells), Blocks: blocks, delay: delay, total: &total}
			if pad > 0 {
				app.Pad = make([]float64, pad)
				for i := range app.Pad {
					app.Pad[i] = float64(i)
				}
			}
			return app
		},
		Modules: mods,
		Result:  func() string { return fmt.Sprintf("total=%.12e", total) },
	}, nil
}

func slowWant(cells int) string {
	sum := 0.0
	for i := 0; i < cells; i++ {
		sum += float64(i) * float64(i)
	}
	return fmt.Sprintf("total=%.12e", sum)
}

// newTestSupervisor builds, registers and starts a supervisor over the
// given store, failing the test on any error.
func newTestSupervisor(t *testing.T, cfg Config) *Supervisor {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	StockWorkloads(s)
	s.Register("slow", slowWorkload)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFleetRunsStockWorkloads(t *testing.T) {
	s := newTestSupervisor(t, Config{Store: pp.NewMemStore(), Budget: 8})
	defer s.Close()
	specs := []JobSpec{
		{Tenant: "alice", Workload: "sor", Params: map[string]int{"n": 16, "iters": 8}},
		{Tenant: "alice", Workload: "crypt", Params: map[string]int{"n": 512}},
		{Tenant: "bob", Workload: "md", Params: map[string]int{"n": 8, "steps": 4}},
		{Tenant: "bob", Workload: "ea", Params: map[string]int{"dim": 4, "pop": 16, "gens": 4}},
		{Tenant: "bob", Workload: "slow", Mode: pp.Shared, Threads: 2},
	}
	var ids []int64
	for _, sp := range specs {
		id, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		if st.State != Done || st.Result == "" {
			t.Errorf("%s: state=%s result=%q error=%q", specs[i].Workload, st.State, st.Result, st.Error)
		}
	}
	if st, _ := s.Job(ids[4]); st.Result != slowWant(40) {
		t.Errorf("slow smp result %q, want %q", st.Result, slowWant(40))
	}
}

// A fleet result must match the same workload run bare through pp.New —
// hosting adds namespacing and scheduling, never a different answer.
func TestFleetMatchesBareRun(t *testing.T) {
	inst, err := SORWorkload(JobSpec{Tenant: "x", Workload: "sor", Mode: pp.Sequential,
		Params: map[string]int{"n": 16, "iters": 8}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pp.New(inst.Factory, pp.WithModules(inst.Modules...))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	bare := inst.Result()

	s := newTestSupervisor(t, Config{Store: pp.NewMemStore(), Budget: 2})
	defer s.Close()
	id, err := s.Submit(JobSpec{Tenant: "x", Workload: "sor", Params: map[string]int{"n": 16, "iters": 8}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.WaitJob(testCtx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result != bare {
		t.Fatalf("fleet result %q, bare result %q", st.Result, bare)
	}
}

// Many engines, one mem store, adversarial tenant names ("t1" vs "t10"):
// checkpoints every safe point from concurrently running jobs must never
// cross-contaminate, and every job must land on the exact digest. Run
// under -race this also exercises the supervisor's locking.
func TestFleetNamespaceIsolation(t *testing.T) {
	s := newTestSupervisor(t, Config{Store: pp.NewMemStore(), Budget: 16, CheckpointEvery: 1})
	defer s.Close()
	var ids []int64
	for i := 0; i < 4; i++ {
		for _, tenant := range []string{"t1", "t10"} {
			id, err := s.Submit(JobSpec{Tenant: tenant, Workload: "slow", Mode: pp.Shared, Threads: 2,
				Params: map[string]int{"cells": 60, "blocks": 12}})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	if err := s.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	want := slowWant(60)
	for _, id := range ids {
		st, _ := s.Job(id)
		if st.State != Done || st.Result != want {
			t.Errorf("job %d (%s): state=%s result=%q want %q", id, st.Tenant, st.State, st.Result, want)
		}
	}
}

func TestFleetStopQueuedAndRunning(t *testing.T) {
	s := newTestSupervisor(t, Config{Store: pp.NewMemStore(), Budget: 1, CheckpointEvery: 2})
	defer s.Close()
	running, err := s.Submit(JobSpec{Tenant: "a", Workload: "slow",
		Params: map[string]int{"cells": 200, "blocks": 100, "delay_us": 2000}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{Tenant: "a", Workload: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job running", func() bool {
		st, _ := s.Job(running)
		return st.State == Running
	})
	if st, _ := s.Job(queued); st.State != Queued {
		t.Fatalf("second job is %s on a full budget, want queued", st.State)
	}
	if err := s.Stop(queued); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Job(queued); st.State != Stopped {
		t.Fatalf("stopped queued job is %s", st.State)
	}
	if err := s.Stop(running); err != nil {
		t.Fatal(err)
	}
	st, err := s.WaitJob(testCtx(t), running)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Stopped {
		t.Fatalf("stopped running job ended as %s (%s)", st.State, st.Error)
	}
	if err := s.Stop(running); err == nil {
		t.Fatal("stopping a finished job must error")
	}
}

func TestFleetSubmitValidation(t *testing.T) {
	s := newTestSupervisor(t, Config{Store: pp.NewMemStore(), Budget: 4})
	defer s.Close()
	cases := []JobSpec{
		{Tenant: "bad~tenant", Workload: "sor"},
		{Tenant: "", Workload: "sor"},
		{Tenant: "a", Workload: "no-such-workload"},
		{Tenant: "a", Workload: "sor", Mode: pp.Shared, Threads: 8}, // over budget, rigid
		{Tenant: "a", Workload: "sor", Mode: pp.Shared, Threads: 8, MinThreads: 6},
	}
	for _, spec := range cases {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	// A malleable job whose floor fits is accepted even though its desired
	// size exceeds the budget headroom at submit time.
	if _, err := s.Submit(JobSpec{Tenant: "a", Workload: "slow", Mode: pp.Shared,
		Threads: 8, MinThreads: 2}); err != nil {
		t.Errorf("malleable job with fitting floor rejected: %v", err)
	}
}
