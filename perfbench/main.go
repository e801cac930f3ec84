// Command perfbench is the repository benchmark. It drives the real engine
// from outside, through the public pp and fleet APIs, on three workloads:
//
//	sor-ckpt     checkpoint and restart of sequential JGF SOR (paper Figs. 3-5)
//	sor-adapt    run-time adaptation of JGF SOR across executors (Figs. 6-7)
//	fleet-churn  many small checkpointed jobs under a churning fleet budget
//
// Each run sets the workload up several times (setup_s is the median), then
// measures whole rounds until the window closes and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced. With
// -trace 1 the window is split: an untraced half, then a traced half whose
// spans give the per-layer metrics; the difference between the halves is
// reported as the tracing overhead, and the spans are written as JSON lines
// under -out. NOTES.md describes the workloads and what every metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRepeats is how many times each run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 9

type metricDef struct{ name, unit string }

// endToEnd lists the metrics printed with -trace 0, in BENCHMARK.json order.
// Times are gated only as ratios to a control run in the same round: on a
// shared machine absolute times drift between runs far more than any bound
// a regression gate could use. A ratio whose mechanism a workload does not
// run reads 1.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ckpt_overhead_x", "ratio"},
	{"invasive_x", "ratio"},
	{"recover_x", "ratio"},
	{"adapt_overhead_x", "ratio"},
	{"hosting_x", "ratio"},
	{"store_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the metrics printed with -trace 1, in BENCHMARK.json order.
// The abs.* times come from the untraced half of the window and are kept as
// a trajectory, not gated. Counts and busy times are per operation: per
// round on the SOR workloads, per job on fleet-churn. A layer a workload
// does not reach reads 0.
var perLayer = []metricDef{
	{"abs.solve_s", "s"},
	{"abs.recover_s", "s"},
	{"abs.jobs_per_s", "1/s"},
	{"abs.job_turnaround_ms.p50", "ms"},
	{"abs.job_turnaround_ms.p95", "ms"},
	{"core.new_ms", "ms"},
	{"core.save_blocked_ms", "ms"},
	{"core.load_ms", "ms"},
	{"core.replay_ms", "ms"},
	{"core.migration_ms", "ms"},
	{"core.safe_points", "count"},
	{"core.checkpoints", "count"},
	{"core.migrations", "count"},
	{"ckpt.save.calls", "count"},
	{"ckpt.save.ms.p50", "ms"},
	{"ckpt.save.ms.p95", "ms"},
	{"ckpt.save.busy_ms", "ms"},
	{"ckpt.load.busy_ms", "ms"},
	{"ckpt.ledger.busy_ms", "ms"},
	{"ckpt.chunk.puts", "count"},
	{"ckpt.chunk.new", "count"},
	{"ckpt.chunk.busy_ms", "ms"},
	{"ckpt.dedup.self_ms", "ms"},
	{"ckpt.dedup_ratio", "ratio"},
	{"ckpt.logical_mb", "MB"},
	{"ckpt.files", "count"},
	{"ckpt.errors", "count"},
	{"serial.encode_mb_s", "MB/s"},
	{"serial.decode_mb_s", "MB/s"},
	{"serial.chunk_key_mb_s", "MB/s"},
	{"mp.msgs", "count"},
	{"mp.mb", "MB"},
	{"mp.msgs_per_sp", "count"},
	{"team.task_chunks", "count"},
	{"team.steals", "count"},
	{"team.steal_idle", "count"},
	{"team.steal_hit_ratio", "ratio"},
	{"fleet.start_ms", "ms"},
	{"fleet.submit_ms.p50", "ms"},
	{"fleet.submit_ms.p95", "ms"},
	{"fleet.hosting_ms.p50", "ms"},
	{"fleet.set_budget_ms", "ms"},
	{"fleet.suspensions", "count"},
	{"fleet.resized_jobs", "ratio"},
	{"fleet.relaunched_jobs", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"error_rate", "ratio"},
	{"trace.spans", "count"},
	{"trace.solve_s_delta", "s"},
	{"trace.jobs_per_s_delta", "1/s"},
	{"trace.overhead_pct", "%"},
}

// config is what every workload is built from. The seed is the only input
// that varies between runs; the program sees only what the workload derives
// from it.
type config struct {
	seed int64
	dir  string // private scratch directory of this set-up
}

// workload is one benchmark workload after set-up.
type workload interface {
	// measure runs whole rounds until window has elapsed (at least one) and
	// reports its metrics. tr is nil for an untraced window; with a tracer
	// the workload records spans and counters and fills the per-layer map.
	measure(window time.Duration, tr *tracer) (*outcome, error)
	close()
}

type newWorkload func(cfg config, chk *checker) (workload, error)

var workloads = map[string]newWorkload{
	"sor-ckpt":    newSORCkpt,
	"sor-adapt":   newSORAdapt,
	"fleet-churn": newFleetChurn,
}

// outcome is one measured window.
type outcome struct {
	ops   int                // operations the per-operation metrics divide by
	e2e   map[string]float64 // end-to-end metrics except setup_s and max_rss_mb, and the abs.* times
	layer map[string]float64 // per-layer metrics the workload computes itself
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sor-ckpt, sor-adapt or fleet-churn")
	seed := flag.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced window, 0 end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for scratch stores and trace files")
	flag.Parse()

	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, window time.Duration, traced bool, out string) (*result, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if window <= 0 {
		return nil, errors.New("the window must be at least one second")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "work-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	chk := &checker{}
	var w workload
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		cfg := config{seed: seed, dir: filepath.Join(work, fmt.Sprintf("setup%d", i))}
		runtime.GC() // start every set-up from the same heap state
		start := time.Now()
		w, err = mk(cfg, chk)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	// One discarded round lets caches fill and lazy set-up finish.
	if _, err := w.measure(0, nil); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", name, err)
	}

	metrics := map[string]float64{}
	var defs []metricDef
	if !traced {
		o, err := w.measure(window, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for k, v := range o.e2e {
			metrics[k] = v
		}
		metrics["setup_s"] = median(setups)
		metrics["max_rss_mb"] = maxRSSMB()
		defs = endToEnd
	} else {
		plain, rt, err := measureWithRuntime(w, window/2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tr := newTracer()
		o, err := w.measure(window-window/2, tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		for k, v := range o.layer {
			metrics[k] = v
		}
		for k, v := range tr.layerMetrics(o.ops) {
			metrics[k] = v
		}
		for k, v := range rt {
			metrics[k] = v
		}
		for _, d := range perLayer {
			if v, ok := plain.e2e[d.name]; ok {
				metrics[d.name] = v
			}
		}
		metrics["trace.spans"] = float64(tr.len()) / float64(o.ops)
		metrics["trace.solve_s_delta"] = o.e2e["abs.solve_s"] - plain.e2e["abs.solve_s"]
		metrics["trace.jobs_per_s_delta"] = o.e2e["abs.jobs_per_s"] - plain.e2e["abs.jobs_per_s"]
		metrics["trace.overhead_pct"] = 100 * (o.e2e["abs.solve_s"]/plain.e2e["abs.solve_s"] - 1)
		if err := tr.write(filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
			return nil, err
		}
		defs = perLayer
	}
	att, failed := chk.counts()
	metrics["error_rate"] = float64(failed) / float64(max(att, 1))

	res := &result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s produced no %s", name, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// measureWithRuntime measures one untraced window and the Go runtime's
// allocation and GC cost per operation over it.
func measureWithRuntime(w workload, window time.Duration) (*outcome, map[string]float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := w.measure(window, nil)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&after)
	ops := float64(o.ops)
	return o, map[string]float64{
		"go.alloc_mb":    float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / ops,
		"go.gc_cycles":   float64(after.NumGC-before.NumGC) / ops,
		"go.gc_pause_ms": float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / ops,
	}, nil
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
