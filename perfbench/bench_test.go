package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"ppar/internal/jgf"
	"ppar/internal/serial"
	"ppar/pp"
)

// files lists the names and sizes of the regular files under dir.
func files(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.Size()
	}
	return out
}

// checkpointedSOR runs a small SOR that checkpoints into store, fails, and
// restarts from it, and returns the restarted run's Gtotal.
func checkpointedSOR(t *testing.T, store pp.Store) float64 {
	t.Helper()
	const n, iters = 128, 40 // 16384 cells: enough for the dedup store to chunk
	res := &jgf.SORResult{}
	factory := func() pp.App { return jgf.NewSOR(n, iters, res) }
	opts := []pp.Option{pp.WithName("sor"), pp.WithModules(jgf.SORModules(pp.Sequential)...),
		pp.WithStore(store), pp.WithCheckpointEvery(10)}
	if _, err := solve(nil, factory, append(opts, pp.WithFailureAt(35, 0))...); !errors.Is(err, pp.ErrInjectedFailure) {
		t.Fatalf("failure did not fire: %v", err)
	}
	rep, err := solve(nil, factory, opts...)
	if err != nil || !rep.Restarted {
		t.Fatalf("restart: %v (restarted %v)", err, rep.Restarted)
	}
	return res.Gtotal
}

// A run through the timing wrappers must leave the same result and the same
// store files as a run without them, for a plain and for a dedup store.
func TestTimedStoreIsTransparent(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		plainDir, wrappedDir := t.TempDir(), t.TempDir()
		plainFS, err := pp.NewFSStore(plainDir)
		if err != nil {
			t.Fatal(err)
		}
		wrappedFS, err := pp.NewFSStore(wrappedDir)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		plain, wrapped := plainFS, pp.Store(wrapStore(wrappedFS, tr, true))
		if dedup {
			plain = pp.NewDedupStore(plainFS)
			wrapped = wrapStore(pp.NewDedupStore(wrapStore(wrappedFS, tr, false)), tr, true)
		}
		want, got := checkpointedSOR(t, plain), checkpointedSOR(t, wrapped)
		if got != want {
			t.Errorf("dedup %v: Gtotal %v through the wrapper, %v without", dedup, got, want)
		}
		if a, b := files(t, plainDir), files(t, wrappedDir); !equalFiles(a, b) {
			t.Errorf("dedup %v: store files differ:\nwithout %v\nthrough %v", dedup, a, b)
		}
		m := tr.layerMetrics(1)
		if m["ckpt.save.busy_ms"] <= 0 || m["serial.encode_mb_s"] <= 0 || m["serial.decode_mb_s"] <= 0 {
			t.Errorf("dedup %v: wrapper recorded no save or serial spans: %v", dedup, m)
		}
		if dedup && (m["ckpt.chunk.puts"] == 0 || m["serial.chunk_key_mb_s"] <= 0) {
			t.Errorf("inner wrapper recorded no chunk puts: %v", m)
		}
	}
}

func equalFiles(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// failingStore fails every save.
type failingStore struct{ pp.Store }

func (failingStore) Save(*serial.Snapshot) error { return errors.New("disk full") }

func TestTimedStoreCountsErrors(t *testing.T) {
	tr := newTracer()
	s := wrapStore(failingStore{pp.NewMemStore()}, tr, true)
	snap := serial.NewSnapshot("app", "seq", 1)
	for i := 0; i < 3; i++ {
		if err := s.Save(snap); err == nil {
			t.Fatal("save through a failing store succeeded")
		}
	}
	if _, _, err := s.Load("app"); err != nil {
		t.Fatal(err)
	}
	if got := tr.layerMetrics(1)["ckpt.errors"]; got != 3 {
		t.Errorf("ckpt.errors = %v, want 3", got)
	}
}

// A perturbed reference must make every checked operation fail, so the
// correctness check can fail at all.
func TestPerturbedReferenceIsAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size solves")
	}
	t.Run("sor-ckpt", func(t *testing.T) {
		chk := &checker{}
		w, err := newSORCkpt(config{seed: 1, dir: t.TempDir()}, chk)
		if err != nil {
			t.Fatal(err)
		}
		s := w.(*sorCkpt)
		s.ref = math.Nextafter(s.ref, math.Inf(1))
		if _, err := w.measure(0, nil); err == nil {
			t.Error("a round with every leg wrong still produced metrics")
		}
		if att, failed := chk.counts(); att != numLegs || failed != numLegs {
			t.Errorf("attempted %d, failed %d; want %d of %d", att, failed, numLegs, numLegs)
		}
	})
	t.Run("fleet-churn", func(t *testing.T) {
		chk := &checker{}
		w, err := newFleetChurn(config{seed: 1, dir: t.TempDir()}, chk)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		f := w.(*fleetChurn)
		key := specKey(f.specs[0])
		f.refs[key] += " perturbed"
		if _, err := w.measure(0, nil); err != nil {
			t.Fatal(err)
		}
		// Each spec runs fleetTenants×fleetRoundCycles times per leg, hosted
		// and bare.
		want := int64(2 * fleetTenants * fleetRoundCycles)
		if _, failed := chk.counts(); failed != want {
			t.Errorf("failed %d, want the %d runs of %s", failed, want, key)
		}
	})
}

func TestExactTrackerFlagsChange(t *testing.T) {
	chk := &checker{}
	var tr exactTracker
	tr.check(chk, exactCounts{SafePoints: 10, MPMsgs: 4})
	tr.check(chk, exactCounts{SafePoints: 10, MPMsgs: 4})
	tr.check(chk, exactCounts{SafePoints: 10, MPMsgs: 5})
	if att, failed := chk.counts(); att != 2 || failed != 1 {
		t.Errorf("attempted %d, failed %d; want 2, 1", att, failed)
	}
}

// The traced counts of one seed must repeat exactly from run to run.
func TestExactCountsRepeatAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size solves")
	}
	var first map[string]float64
	for i := 0; i < 2; i++ {
		chk := &checker{}
		w, err := newSORAdapt(config{seed: 7, dir: t.TempDir()}, chk)
		if err != nil {
			t.Fatal(err)
		}
		o, err := w.measure(0, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if _, failed := chk.counts(); failed != 0 {
			t.Fatalf("%d operations failed", failed)
		}
		got := map[string]float64{}
		for _, k := range []string{"core.safe_points", "core.checkpoints", "core.migrations",
			"ckpt.save.calls", "mp.msgs", "mp.mb", "team.task_chunks"} {
			got[k] = o.layer[k]
		}
		if got["mp.msgs"] == 0 || got["team.task_chunks"] == 0 || got["core.migrations"] != 3 {
			t.Fatalf("counts not recorded: %v", got)
		}
		if first == nil {
			first = got
			continue
		}
		for k, v := range got {
			if v != first[k] {
				t.Errorf("%s = %v, first run %v", k, v, first[k])
			}
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics perfbench
// prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named = struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []named                 `json:"end_to_end"`
		PerLayer  []named                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in perfbench", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, perfbench %v", what, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for k := range workloads {
		want = append(want, k)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json %v, perfbench %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("workloads: BENCHMARK.json %v, perfbench %v", names, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := ratios([]time.Duration{2, 9}, []time.Duration{1, 3}); got[0] != 2 || got[1] != 3 {
		t.Errorf("ratios = %v", got)
	}
}
