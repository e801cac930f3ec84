package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// checker counts operations and the ones whose result differed from its
// reference or that returned an error; failed/attempted is error_rate.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
}

// expect records one checked operation and reports whether it passed. A
// failure is described on standard error.
func (c *checker) expect(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	c.attempted++
	if !ok {
		c.failed++
	}
	c.mu.Unlock()
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

func (c *checker) counts() (attempted, failed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// exactCounts are counters that depend only on the workload's inputs, so
// every round of one seed must repeat them exactly; a change flags a
// non-deterministic workload.
type exactCounts struct {
	SafePoints, Checkpoints, Migrations int
	SaveCalls, MPMsgs, MPBytes          int64
	TaskChunks                          int64
}

// exactTracker compares each round's counts with the first round's.
type exactTracker struct {
	first *exactCounts
}

func (t *exactTracker) check(chk *checker, cur exactCounts) {
	if t.first == nil {
		t.first = &cur
		return
	}
	chk.expect(cur == *t.first, "exact counts changed between rounds: %+v, then %+v", *t.first, cur)
}

// layer writes the first round's counts into the per-layer metrics.
func (t *exactTracker) layer(m map[string]float64) {
	if t.first == nil {
		return
	}
	c := t.first
	m["core.safe_points"] = float64(c.SafePoints)
	m["core.checkpoints"] = float64(c.Checkpoints)
	m["core.migrations"] = float64(c.Migrations)
	m["ckpt.save.calls"] = float64(c.SaveCalls)
	m["mp.msgs"] = float64(c.MPMsgs)
	m["mp.mb"] = float64(c.MPBytes) / 1e6
	if c.SafePoints > 0 {
		m["mp.msgs_per_sp"] = float64(c.MPMsgs) / float64(c.SafePoints)
	}
	m["team.task_chunks"] = float64(c.TaskChunks)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// ratios divides a[i] by b[i] for each round.
func ratios(a, b []time.Duration) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i].Seconds() / b[i].Seconds()
	}
	return out
}

// dirUsage reports the regular files under dir and their total size.
func dirUsage(dir string) (files int, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}

// freshDir empties dir, creating it if needed.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
