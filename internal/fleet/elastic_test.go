package fleet

import (
	"testing"

	"ppar/pp"
)

// A live budget cut squeezes a malleable runner in place (no relaunch),
// and restoring the budget grows it back — the fleet face of the same
// RequestAdapt machinery the autoscaler drives.
func TestFleetSetBudgetSqueezesMalleable(t *testing.T) {
	s := newTestSupervisor(t, Config{Store: pp.NewMemStore(), Budget: 8, CheckpointEvery: 4})
	defer s.Close()
	id, err := s.Submit(JobSpec{Tenant: "a", Workload: "slow", Mode: pp.Shared,
		Threads: 8, MinThreads: 2,
		Params: map[string]int{"cells": 1000, "blocks": 200, "delay_us": 1500}})
	if err != nil {
		t.Fatal(err)
	}
	// Alloc is set at launch, before the engine exists; a budget cut that
	// lands in that window suspends the job rather than resizing it. Wait
	// for the live engine (its Report) so the cut tests the in-place path.
	waitFor(t, "job's engine to run on the full budget", func() bool {
		st, _ := s.Job(id)
		return st.State == Running && st.Alloc == 8 && st.Report != nil
	})

	s.SetBudget(3)
	waitFor(t, "in-place shrink to the new budget", func() bool {
		st, _ := s.Job(id)
		return st.State == Running && st.Alloc == 3
	})

	s.SetBudget(8)
	waitFor(t, "growth back to the restored budget", func() bool {
		st, _ := s.Job(id)
		return st.Alloc == 8 || st.State == Done
	})

	st, err := s.WaitJob(testCtx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Done || st.Result != slowWant(1000) {
		t.Fatalf("squeezed job: state=%s result=%q (%s)", st.State, st.Result, st.Error)
	}
	if st.Report == nil || !st.Report.Adapted {
		t.Fatal("budget squeeze was not an in-place adaptation")
	}
	if st.Report.Restarted {
		t.Fatal("malleable job relaunched instead of resizing in place")
	}
}

// An elastic Distributed job submitted into a tight budget launches below
// its desired world size instead of queueing forever, and still lands on
// the exact digest.
func TestFleetElasticLaunchesBelowDesired(t *testing.T) {
	s := newTestSupervisor(t, Config{Store: pp.NewMemStore(), Budget: 2})
	defer s.Close()
	id, err := s.Submit(JobSpec{Tenant: "a", Workload: "slow", Mode: pp.Distributed,
		Procs: 4, MinProcs: 2,
		Params: map[string]int{"cells": 120, "blocks": 24, "delay_us": 200}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "elastic job running under the tight budget", func() bool {
		st, _ := s.Job(id)
		return st.State == Running || st.State == Done
	})
	if st, _ := s.Job(id); st.State == Running && st.Alloc != 2 {
		t.Fatalf("elastic job allocated %d units on a budget of 2", st.Alloc)
	}
	st, err := s.WaitJob(testCtx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Done || st.Result != slowWant(120) {
		t.Fatalf("elastic job: state=%s result=%q (%s)", st.State, st.Result, st.Error)
	}
}

// The forced-shrink path end to end: a budget cut below an elastic
// Distributed job's world checkpoint-stops it, requeues it, and relaunches
// it at fewer ranks — the re-sharding restore repartitions its state — and
// the digest still matches an uninterrupted run.
func TestFleetSetBudgetRelaunchesElasticSmaller(t *testing.T) {
	s := newTestSupervisor(t, Config{Store: pp.NewMemStore(), Budget: 4})
	defer s.Close()
	id, err := s.Submit(JobSpec{Tenant: "a", Workload: "slow", Mode: pp.Distributed,
		Procs: 4, MinProcs: 2, CheckpointEvery: 1,
		Params: map[string]int{"cells": 600, "blocks": 120, "delay_us": 1000}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "elastic job running at full world with a checkpoint", func() bool {
		st, _ := s.Job(id)
		return st.State == Running && st.Alloc == 4 &&
			st.Report != nil && st.Report.Checkpoints >= 1
	})

	// A node leaves: the world no longer fits. The job cannot resize in
	// place — it must checkpoint-stop and come back smaller.
	s.SetBudget(2)
	waitFor(t, "relaunch at the shrunken world", func() bool {
		st, _ := s.Job(id)
		return st.State == Running && st.Alloc == 2
	})

	st, err := s.WaitJob(testCtx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Done || st.Result != slowWant(600) {
		t.Fatalf("relaunched job: state=%s result=%q (%s)", st.State, st.Result, st.Error)
	}
	if st.Report == nil || !st.Report.Restarted {
		t.Fatal("shrunken relaunch did not resume from a checkpoint (re-ran from scratch)")
	}
}

// Budget eviction prefers the cheap lever: when shrinking malleable
// runners in place covers the cut, no job is suspended.
func TestFleetSetBudgetPrefersInPlaceShrink(t *testing.T) {
	s := newTestSupervisor(t, Config{Store: pp.NewMemStore(), Budget: 6})
	defer s.Close()
	mal, err := s.Submit(JobSpec{Tenant: "a", Workload: "slow", Mode: pp.Shared,
		Threads: 4, MinThreads: 1, Priority: 0,
		Params: map[string]int{"cells": 800, "blocks": 160, "delay_us": 1500}})
	if err != nil {
		t.Fatal(err)
	}
	rigid, err := s.Submit(JobSpec{Tenant: "a", Workload: "slow", Mode: pp.Shared,
		Threads: 2, Priority: 1,
		Params: map[string]int{"cells": 400, "blocks": 80, "delay_us": 1500}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both jobs running", func() bool {
		m, _ := s.Job(mal)
		r, _ := s.Job(rigid)
		return m.State == Running && m.Alloc == 4 && r.State == Running
	})

	s.SetBudget(3)
	waitFor(t, "malleable job absorbed the whole cut", func() bool {
		m, _ := s.Job(mal)
		return m.Alloc == 1
	})
	if r, _ := s.Job(rigid); r.State != Running {
		t.Fatalf("rigid job was evicted despite an in-place escape: %s", r.State)
	}
	if err := s.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{mal, rigid} {
		if st, _ := s.Job(id); st.State != Done {
			t.Errorf("job %d: %s (%s)", id, st.State, st.Error)
		}
	}
}
