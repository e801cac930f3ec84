package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans from the benchmark's own side of each layer
// boundary: around calls into core (pp.New, Run), ckpt (the timedStore
// wrappers), serial (public encode/decode/chunk-key functions applied to the
// snapshots that cross the wrapper) and fleet (Submit, WaitJob,
// SetBudget). Nothing inside the program is instrumented. Spans stay in
// memory until write.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  map[uint64][]int // goroutine -> IDs of its open spans, innermost last

	op atomic.Int64 // operation new spans are attributed to

	saveCalls   atomic.Int64 // Save* calls on the store handed to the program
	mpMsgs      atomic.Int64 // messages seen by the counting transport hook
	mpBytes     atomic.Int64
	suspensions atomic.Int64 // fleet log lines announcing a suspension
}

// span is one call across a layer boundary. Parent is the innermost span
// open on the same goroutine when it began (0 for none); Op groups the
// spans of one operation (a solve, or a fleet job).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	App    string `json:"app,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	N      int64  `json:"n,omitempty"` // what a counter span counted
	Dup    bool   `json:"dup,omitempty"`
	Err    bool   `json:"err,omitempty"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14), open: map[uint64][]int{}}
}

// begin opens a span and returns its ID. A nil tracer records nothing.
func (t *tracer) begin(layer, name, app string) int {
	if t == nil {
		return 0
	}
	g := goid()
	t.mu.Lock()
	id := len(t.spans) + 1
	parent := 0
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op.Load(), Layer: layer, Name: name, App: app})
	t.open[g] = append(t.open[g], id)
	t.spans[id-1].Start = int64(time.Since(t.t0))
	t.mu.Unlock()
	return id
}

// end closes span id, recording the payload size it moved and its outcome.
func (t *tracer) end(id int, bytes int64, dup bool, err error) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	g := goid()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.Dur = now - s.Start
	s.Bytes, s.Dup, s.Err = bytes, dup, err != nil
	if st := t.open[g]; len(st) > 0 {
		if len(st) == 1 {
			delete(t.open, g)
		} else {
			t.open[g] = st[:len(st)-1]
		}
	}
	t.mu.Unlock()
}

// recordBytes adds a closed span the caller timed itself.
func (t *tracer) recordBytes(layer, name string, start time.Time, d time.Duration, bytes int64) {
	if t == nil {
		return
	}
	t.recordSpan(span{Layer: layer, Name: name, Start: int64(start.Sub(t.t0)), Dur: int64(d), Bytes: bytes})
}

// recordCount adds a span over [start, start+d) carrying a count the layer
// reported for that interval.
func (t *tracer) recordCount(layer, name string, start time.Time, d time.Duration, n int64) {
	if t == nil {
		return
	}
	t.recordSpan(span{Layer: layer, Name: name, Start: int64(start.Sub(t.t0)), Dur: int64(d), N: n})
}

func (t *tracer) recordSpan(s span) {
	t.mu.Lock()
	s.ID, s.Op = len(t.spans)+1, t.op.Load()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// countMessage is a pp.WithDelay hook: it records every message the
// transport sends as an instant mp span and returns no delay, which leaves
// delivery unchanged.
func (t *tracer) countMessage(from, to, n int) time.Duration {
	t.mpMsgs.Add(1)
	t.mpBytes.Add(int64(n))
	t.recordBytes("mp", "send", time.Now(), 0, int64(n))
	return 0
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerMetrics aggregates the ckpt, serial, core and fleet spans into
// per-layer metrics; busy times and call counts are per operation.
func (t *tracer) layerMetrics(ops int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	per := 1 / float64(max(ops, 1))
	var (
		saveMs, submitMs, newMs     []float64
		saveBusy, loadBusy, ledger  int64
		chunkBusy, outerBusy, inner int64
		puts, newChunks, errs       int
		budgetNs, budgetCalls       int64
		encB, encNs, decB, decNs    int64
		keyB, keyNs                 int64
		hasInner                    bool
	)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Err && (s.Layer == "ckpt" || s.Layer == "ckpt.fs") {
			errs++
		}
		switch s.Layer {
		case "ckpt":
			outerBusy += s.Dur
			switch s.Name {
			case "save":
				saveBusy += s.Dur
				saveMs = append(saveMs, float64(s.Dur)/1e6)
			case "load":
				loadBusy += s.Dur
			case "ledger":
				ledger += s.Dur
			}
		case "ckpt.fs":
			hasInner = true
			if s.Parent != 0 {
				inner += s.Dur
			}
			if s.Name == "chunk.put" {
				puts++
				chunkBusy += s.Dur
				if !s.Dup {
					newChunks++
				}
			}
		case "serial":
			switch s.Name {
			case "encode":
				encB, encNs = encB+s.Bytes, encNs+s.Dur
			case "decode":
				decB, decNs = decB+s.Bytes, decNs+s.Dur
			case "chunk_key":
				keyB, keyNs = keyB+s.Bytes, keyNs+s.Dur
			}
		case "core":
			if s.Name == "new" {
				newMs = append(newMs, float64(s.Dur)/1e6)
			}
		case "fleet":
			switch s.Name {
			case "submit":
				submitMs = append(submitMs, float64(s.Dur)/1e6)
			case "set_budget":
				budgetNs += s.Dur
				budgetCalls++
			}
		}
	}
	m := map[string]float64{
		"ckpt.save.ms.p50":    quantile(saveMs, 0.5),
		"ckpt.save.ms.p95":    quantile(saveMs, 0.95),
		"ckpt.save.busy_ms":   float64(saveBusy) / 1e6 * per,
		"ckpt.load.busy_ms":   float64(loadBusy) / 1e6 * per,
		"ckpt.ledger.busy_ms": float64(ledger) / 1e6 * per,
		"ckpt.chunk.puts":     float64(puts) * per,
		"ckpt.chunk.new":      float64(newChunks) * per,
		"ckpt.chunk.busy_ms":  float64(chunkBusy) / 1e6 * per,
		"ckpt.errors":         float64(errs),
	}
	if hasInner {
		// The dedup store calls its inner store synchronously, so its self
		// time is its callers' spans minus the inner spans they enclose.
		m["ckpt.dedup.self_ms"] = float64(outerBusy-inner) / 1e6 * per
	}
	if len(newMs) > 0 {
		m["core.new_ms"] = median(newMs)
	}
	if len(submitMs) > 0 {
		m["fleet.submit_ms.p50"] = quantile(submitMs, 0.5)
		m["fleet.submit_ms.p95"] = quantile(submitMs, 0.95)
	}
	if budgetCalls > 0 {
		m["fleet.set_budget_ms"] = float64(budgetNs) / 1e6 / float64(budgetCalls)
	}
	rate := func(b, ns int64) float64 {
		if ns == 0 {
			return 0
		}
		return float64(b) / 1e6 / (float64(ns) / 1e9)
	}
	m["serial.encode_mb_s"] = rate(encB, encNs)
	m["serial.decode_mb_s"] = rate(decB, decNs)
	m["serial.chunk_key_mb_s"] = rate(keyB, keyNs)
	return m
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 42 [running]:"). It links a span to the span its goroutine
// has open, which is how the dedup store's inner calls find their parent.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
