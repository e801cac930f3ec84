// Command fleet walks through the supervisor layer that cmd/ppserve wraps
// in HTTP: one process hosting many checkpointed runs for many tenants
// against a single machine budget. Three acts:
//
//  1. Multi-tenancy — two tenants' jobs share one store, each namespaced
//     under its tenant prefix, and drain concurrently under the budget.
//  2. The budget squeeze — a high-priority submission arrives while a
//     low-priority malleable job holds the whole machine; the supervisor
//     shrinks the running job at a safe point (the paper's run-time
//     adaptation, §V, driven by policy instead of an operator), admits the
//     newcomer, and grows the shrunken job back when the machine frees up.
//  3. Crash recovery — the supervisor is torn down mid-run; a new one over
//     the same store re-admits the unfinished job from the journal and
//     resumes it from its newest checkpoint.
//
// Everything runs against an in-memory store; a real deployment points
// fleet.Config.Store at pp.NewFSStore (as cmd/ppserve does) and gets the
// same journal and checkpoints kill -9-proof on disk.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ppar/internal/fleet"
	"ppar/pp"
)

func main() {
	store := pp.NewMemStore()
	sup := start(store)

	// --- Act 1: two tenants, four workloads, one budget -----------------
	fmt.Println("act 1: two tenants share the machine")
	var ids []int64
	for _, spec := range []fleet.JobSpec{
		{Tenant: "acme", Workload: "sor", Params: map[string]int{"n": 64, "iters": 60}},
		{Tenant: "acme", Workload: "crypt", Params: map[string]int{"n": 2048}},
		{Tenant: "beta", Workload: "md", Params: map[string]int{"n": 24, "steps": 40}},
		{Tenant: "beta", Workload: "ea", Params: map[string]int{"dim": 6, "pop": 32, "gens": 30, "seed": 7}},
	} {
		id, err := sup.Submit(spec)
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sup.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	for _, id := range ids {
		st, _ := sup.Job(id)
		fmt.Printf("  job %d  %-6s %-5s  %s  %s\n", st.ID, st.Tenant, st.Workload, st.State, st.Result)
	}

	// --- Act 2: the budget squeeze --------------------------------------
	// A malleable low-priority job (smp, 4 threads, may shrink to 1) takes
	// the whole machine; a rigid high-priority job then needs 3 units.
	fmt.Println("act 2: a high-priority job squeezes a malleable one")
	low, err := sup.Submit(fleet.JobSpec{
		Tenant: "acme", Workload: "sor", Mode: pp.Shared,
		Threads: 4, MinThreads: 1, Priority: 1,
		Params: map[string]int{"n": 256, "iters": 400}, CheckpointEvery: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	waitFor(sup, low, func(st fleet.JobStatus) bool { return st.State == fleet.Running && st.Alloc == 4 })
	fmt.Printf("  low-priority job %d running with the full budget (alloc 4)\n", low)

	high, err := sup.Submit(fleet.JobSpec{
		Tenant: "beta", Workload: "md", Mode: pp.Shared, Threads: 3, Priority: 9,
		Params: map[string]int{"n": 24, "steps": 60},
	})
	if err != nil {
		log.Fatal(err)
	}
	// The short high-priority job may finish between two polls, so Done
	// counts as admitted too.
	waitFor(sup, high, func(st fleet.JobStatus) bool { return st.State == fleet.Running || st.State == fleet.Done })
	lo, _ := sup.Job(low)
	fmt.Printf("  high-priority job %d admitted; low job shrunk to alloc %d at a safe point\n", high, lo.Alloc)

	if st, err := sup.WaitJob(ctx, high); err != nil || st.State != fleet.Done {
		log.Fatalf("high job: %+v %v", st, err)
	}
	waitFor(sup, low, func(st fleet.JobStatus) bool { return st.Alloc == 4 || st.State == fleet.Done })
	lo, _ = sup.Job(low)
	fmt.Printf("  high job done; low job grew back (alloc %d, adapted=%v)\n",
		lo.Alloc, lo.Report != nil && lo.Report.Adapted)
	if st, err := sup.WaitJob(ctx, low); err != nil || st.State != fleet.Done {
		log.Fatalf("low job: %+v %v", st, err)
	} else {
		fmt.Printf("  low job finished correctly after shrink+grow: %s\n", st.Result)
	}

	// --- Act 3: crash recovery from the journal -------------------------
	fmt.Println("act 3: shut down mid-run, resume from the journal")
	slow, err := sup.Submit(fleet.JobSpec{
		Tenant: "acme", Workload: "sor",
		Params: map[string]int{"n": 256, "iters": 2000}, CheckpointEvery: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	waitFor(sup, slow, func(st fleet.JobStatus) bool {
		return st.Report != nil && st.Report.Checkpoints >= 1
	})
	if err := sup.Close(); err != nil { // parks the running job, journal keeps it pending
		log.Fatal(err)
	}
	fmt.Printf("  supervisor closed with job %d checkpointed but unfinished\n", slow)

	sup2 := start(store) // same store: the journal re-admits the job
	defer sup2.Close()
	st, err := sup2.WaitJob(ctx, slow)
	if err != nil || st.State != fleet.Done {
		log.Fatalf("resumed job: %+v %v", st, err)
	}
	fmt.Printf("  new supervisor resumed it from the checkpoint (restarted=%v): %s\n",
		st.Report.Restarted, st.Result)
}

func start(store pp.Store) *fleet.Supervisor {
	sup, err := fleet.New(fleet.Config{Store: store, Budget: 4})
	if err != nil {
		log.Fatal(err)
	}
	fleet.StockWorkloads(sup)
	recovered, err := sup.Start()
	if err != nil {
		log.Fatal(err)
	}
	if recovered > 0 {
		fmt.Printf("  (%d unfinished job(s) recovered from the journal)\n", recovered)
	}
	return sup
}

func waitFor(sup *fleet.Supervisor, id int64, cond func(fleet.JobStatus) bool) {
	deadline := time.Now().Add(time.Minute)
	for {
		st, ok := sup.Job(id)
		if ok && cond(st) {
			return
		}
		if st.State == fleet.Failed || time.Now().After(deadline) {
			log.Fatalf("job %d never reached the expected state: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
