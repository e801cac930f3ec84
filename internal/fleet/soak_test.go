package fleet

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ppar/internal/ckpt"
	"ppar/internal/cluster"
	"ppar/internal/serial"
	"ppar/pp"
)

// soakFactor scales the churn soak: 1 under -short (the per-PR CI tier),
// 4 in a full local run, and whatever PPAR_SOAK_FACTOR says in the nightly
// long soak.
func soakFactor(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("PPAR_SOAK_FACTOR"); v != "" {
		f, err := strconv.Atoi(v)
		if err != nil || f < 1 {
			t.Fatalf("bad PPAR_SOAK_FACTOR %q", v)
		}
		return f
	}
	if testing.Short() {
		return 1
	}
	return 4
}

// soakArtifact writes a failure-diagnosis summary where the CI soak job
// can pick it up (PPAR_SOAK_ARTIFACT), so a nightly failure reproduces
// without re-running two hours of churn.
func soakArtifact(t *testing.T, lines []string) {
	t.Helper()
	path := os.Getenv("PPAR_SOAK_ARTIFACT")
	if path == "" {
		return
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Logf("writing soak artifact %s: %v", path, err)
	}
}

// TestFleetChurnSoak is the churn soak: a deterministic pseudo-random
// capacity walk (node loss and arrival, cluster.Flapping) plays against a
// live fleet of malleable, elastic and rigid jobs, with every capacity
// event re-budgeting the supervisor. The soak passes when
//
//   - every job completes byte-identical to the unadapted sequential
//     reference (no divergence, however many shrinks, suspensions and
//     re-sharded relaunches the churn forced),
//   - the number of forced suspensions stays inside the structural bound
//     (one eviction pass per capacity event — no flapping loop), and
//   - the checkpoint store's footprint after the soak is bounded by the
//     job count alone, independent of how many churn events played (no
//     artifact leak per relaunch).
func TestFleetChurnSoak(t *testing.T) {
	store := ckpt.NewMem()
	churnSoak(t, store, nil, store.Size)
}

// TestFleetChurnSoakDedupFS plays the same churn over a dedup store on
// disk. Every job carries the same chunkable ballast, so chunks are shared
// across jobs and tenant namespaces while relaunches and completions
// release them. The directory must stay bounded like the Mem store, hold
// at most the ballast's distinct chunks, and no reference sidecars.
func TestFleetChurnSoakDedupFS(t *testing.T) {
	dir := t.TempDir()
	fsStore, err := ckpt.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	const pad = 2*serial.DeltaChunkElems + 100 // three chunks
	store := ckpt.NewDedup(fsStore)
	churnSoak(t, store, map[string]int{"pad": pad}, func() (int, int64) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		items, bytes, chunks := 0, int64(0), 0
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case strings.HasSuffix(e.Name(), ".ref"):
				t.Errorf("reference sidecar %s in the store", e.Name())
			case strings.HasSuffix(e.Name(), ".chunk"):
				chunks++
			}
			items++
			bytes += info.Size()
		}
		if chunks > 3 {
			t.Errorf("%d chunk files for a ballast of 3 distinct chunks", chunks)
		}
		return items, bytes
	})
	if st := store.Stats(); st.DupChunks == 0 || st.Chunks == st.DupChunks {
		t.Errorf("the soak exercised no chunk sharing: %+v", st)
	} else {
		t.Logf("dedup: %+v", st)
	}
}

// churnSoak runs the churn soak against store, adding params to every
// job spec; size reports the store's footprint once the fleet drained.
func churnSoak(t *testing.T, store pp.Store, params map[string]int, size func() (int, int64)) {
	factor := soakFactor(t)
	top := cluster.Topology{Machines: 2, Cores: 4}
	full := top.TotalCores() // 8 budget units

	var logMu sync.Mutex
	suspensions := 0
	var logLines []string
	s, err := New(Config{Store: store, Budget: full, CheckpointEvery: 2,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			line := fmt.Sprintf(format, args...)
			logLines = append(logLines, line)
			if strings.Contains(line, "suspending") {
				suspensions++
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	s.Register("slow", slowWorkload)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The job mix: every elasticity class the scheduler knows, oversubmitted
	// so the queue stays busy for the whole churn window.
	cells := 360 * factor
	var ids []int64
	var wantDigests []string
	for i := 0; i < 3; i++ {
		specs := []JobSpec{
			{Tenant: "soak", Workload: "slow", Mode: pp.Shared,
				Threads: 4, MinThreads: 1, CheckpointEvery: 1,
				Params: map[string]int{"cells": cells, "blocks": cells / 5, "delay_us": 400}},
			{Tenant: "soak", Workload: "slow", Mode: pp.Distributed,
				Procs: 4, MinProcs: 2, CheckpointEvery: 1,
				Params: map[string]int{"cells": cells, "blocks": cells / 5, "delay_us": 400}},
			{Tenant: "soak", Workload: "slow",
				Params: map[string]int{"cells": cells / 4, "blocks": cells / 20, "delay_us": 400}},
		}
		for _, spec := range specs {
			for k, v := range params {
				spec.Params[k] = v
			}
			id, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			wantDigests = append(wantDigests, slowWant(spec.Params["cells"]))
		}
	}

	// The capacity walk: deterministic from the seed, so a failing soak
	// reproduces exactly. Thread capacity is ignored here — the fleet's
	// budget is total lines of execution, which is the proc walk.
	const period = 60 * time.Millisecond
	events := 10 * factor
	churn := cluster.NewChurnSim(top, cluster.Flapping(top, period, events, 42)...)
	churn.OnChange(func(_, procs int) { s.SetBudget(procs) })
	stopChurn := churn.Start()
	time.Sleep(time.Duration(events)*period + 2*period)
	stopChurn()

	// The cluster heals; the fleet must converge and drain.
	s.SetBudget(full)
	if err := s.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}

	var report []string
	report = append(report, fmt.Sprintf("factor=%d events=%d suspensions=%d", factor, events, suspensions))
	failed := false
	for i, id := range ids {
		st, _ := s.Job(id)
		report = append(report, fmt.Sprintf("job %d: state=%s result=%q err=%q", id, st.State, st.Result, st.Error))
		if st.State != Done || st.Result != wantDigests[i] {
			t.Errorf("job %d diverged: state=%s result=%q want %q (%s)",
				id, st.State, st.Result, wantDigests[i], st.Error)
			failed = true
		}
	}

	// One eviction pass per capacity event, at most #running jobs each:
	// anything past that is a re-suspension loop.
	if bound := (events + 1) * len(ids); suspensions > bound {
		t.Errorf("suspension churn: %d suspensions for %d events (bound %d)", suspensions, events, bound)
		failed = true
	}

	// Store growth bounded by the job count, not the churn length: each job
	// keeps at most its newest canonical snapshot, manifest and chain head,
	// plus the fleet journal — relaunches overwrite, never accumulate.
	items, bytes := size()
	report = append(report, fmt.Sprintf("store: %d items, %d bytes", items, bytes))
	if maxItems := 6*len(ids) + 8; items > maxItems {
		t.Errorf("store leaked artifacts across churn: %d items (bound %d)", items, maxItems)
		failed = true
	}
	if maxBytes := int64(len(ids)) * int64(cells) * 64 * 8; bytes > maxBytes {
		t.Errorf("store leaked bytes across churn: %d (bound %d)", bytes, maxBytes)
		failed = true
	}
	if failed {
		logMu.Lock()
		report = append(report, logLines...)
		logMu.Unlock()
	}
	soakArtifact(t, report)
}
