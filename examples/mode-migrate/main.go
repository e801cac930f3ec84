// Command mode-migrate demonstrates in-process cross-mode migration: the
// same SOR base program starts on a shared-memory thread team and, at a safe
// point mid-run, migrates to a world of SPMD replicas — and later back —
// without leaving the Run call and without changing the result. This is the
// paper's adaptation-by-restart (Figures 6 and 7) collapsed into one
// process: the engine snapshots canonically into an internal memory store,
// swaps the executor, and replays to the same safe point.
package main

import (
	"fmt"
	"log"

	"ppar/internal/jgf"
	"ppar/pp"
)

func main() {
	const n, iters = 200, 40
	reference := jgf.SORReference(n, iters)
	fmt.Printf("reference Gtotal: %.12f\n\n", reference)

	scenarios := []struct {
		label string
		mode  pp.Mode
		opts  []pp.Option
	}{
		{
			"smp(4) -> dist(4) at safe point 20",
			pp.Shared,
			[]pp.Option{pp.WithThreads(4),
				pp.WithAdaptPolicy(pp.AdaptAt(20, pp.AdaptTarget{Mode: pp.Distributed, Procs: 4}))},
		},
		{
			"dist(4) -> smp(4) at safe point 20",
			pp.Distributed,
			[]pp.Option{pp.WithProcs(4),
				pp.WithAdaptPolicy(pp.AdaptAt(20, pp.AdaptTarget{Mode: pp.Shared, Threads: 4}))},
		},
		{
			"seq -> hybrid(2x2) at safe point 10",
			pp.Sequential,
			[]pp.Option{
				pp.WithAdaptPolicy(pp.AdaptAt(10, pp.AdaptTarget{Mode: pp.Hybrid, Procs: 2, Threads: 2}))},
		},
		{
			"smp(2) -> dist(3) -> smp(4) (Schedule policy, there and back)",
			pp.Shared,
			[]pp.Option{pp.WithThreads(2),
				pp.WithAdaptPolicy(pp.Schedule(
					pp.AdaptStep{At: 10, Target: pp.AdaptTarget{Mode: pp.Distributed, Procs: 3}},
					pp.AdaptStep{At: 30, Target: pp.AdaptTarget{Mode: pp.Shared, Threads: 4}},
				))},
		},
		{
			"smp(4), policy: migrate right after the sp-16 checkpoint",
			pp.Shared,
			[]pp.Option{pp.WithThreads(4),
				pp.WithStore(pp.NewMemStore()), pp.WithCheckpointEvery(16),
				pp.WithAdaptPolicy(pp.PolicyFunc(func(s pp.RunStats) pp.AdaptTarget {
					// The cadence counters let the policy piggyback on a
					// fresh checkpoint: migrate exactly when one was taken.
					if s.Mode == pp.Shared && s.LastCheckpointSP == s.SafePoint {
						return pp.AdaptTarget{Mode: pp.Distributed, Procs: 2}
					}
					return pp.AdaptTarget{}
				}))},
		},
	}
	for _, sc := range scenarios {
		res := &jgf.SORResult{}
		// The full module set is plugged once; each executor uses the advice
		// its machinery understands, so the same deployment survives every
		// migration target.
		opts := append([]pp.Option{
			pp.WithName("mode-migrate"),
			pp.WithMode(sc.mode),
			pp.WithModules(jgf.SORModules(pp.Hybrid)...),
		}, sc.opts...)
		eng, err := pp.New(func() pp.App { return jgf.NewSOR(n, iters, res) }, opts...)
		if err != nil {
			log.Fatalf("%s: %v", sc.label, err)
		}
		if err := eng.Run(); err != nil {
			log.Fatalf("%s: %v", sc.label, err)
		}
		rep := eng.Report()
		status := "identical result"
		if res.Gtotal != reference {
			status = "RESULT DIVERGED"
		}
		fmt.Printf("%-62s migrations=%d blocked=%-10v %s\n",
			sc.label, rep.Migrations, rep.MigrationTotal, status)
		if res.Gtotal != reference {
			log.Fatal("migration changed the computation")
		}
		if rep.Migrations == 0 {
			log.Fatal("no migration happened")
		}
	}
	fmt.Println("\nall migrations preserved the computation")
}
