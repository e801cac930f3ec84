// Command evolutionary runs the pluggable evolutionary-computation
// framework (the paper's case study [20]): one genetic algorithm deployed
// sequentially, on a thread team and across replicas, with a mid-run world
// expansion — the scenario of a Grid granting extra nodes while an
// optimisation runs.
package main

import (
	"fmt"
	"log"

	"ppar/internal/ea"
	"ppar/pp"
)

func main() {
	problem := ea.Rastrigin{D: 8}
	const pop, gens, seed = 64, 40, 7

	run := func(label string, mode pp.Mode, opts ...pp.Option) float64 {
		res := &ea.Result{}
		opts = append([]pp.Option{
			pp.WithName("ea-demo"),
			pp.WithMode(mode),
			pp.WithModules(ea.Modules(mode)...),
		}, opts...)
		eng, err := pp.New(func() pp.App { return ea.New(problem, pop, gens, seed, res) }, opts...)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		if err := eng.Run(); err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-40s best fitness = %.6f  (%v)\n", label, res.Best, eng.Report().Elapsed)
		return res.Best
	}

	ref := run("sequential", pp.Sequential)
	variants := []struct {
		label string
		mode  pp.Mode
		opts  []pp.Option
	}{
		{"4 threads", pp.Shared, []pp.Option{pp.WithThreads(4)}},
		{"4 replicas", pp.Distributed, []pp.Option{pp.WithProcs(4)}},
		{"2 replicas -> 4 mid-run", pp.Distributed, []pp.Option{pp.WithProcs(2),
			pp.WithAdaptPolicy(pp.AdaptAt(20, pp.AdaptTarget{Procs: 4}))}},
	}
	for _, v := range variants {
		if got := run(v.label, v.mode, v.opts...); got != ref {
			log.Fatalf("%s: best %v differs from sequential %v", v.label, got, ref)
		}
	}
	fmt.Println("evolution is deterministic across deployments and adaptations")
}
