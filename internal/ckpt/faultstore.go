package ckpt

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"ppar/internal/serial"
)

// FaultOp names one Store operation class for fault injection.
type FaultOp int

// Operation classes a FaultStore can inject faults into.
const (
	OpSave FaultOp = iota
	OpSaveDelta
	OpSaveShard
	OpSaveShardDelta
	OpSaveManifest
	OpLoad
	OpLoadChain
	OpLoadShard
	OpLoadShardDelta
	OpLoadManifest
	OpClearDeltas
	OpClearShardDeltas
	OpPutChunk
	OpGetChunk
	OpReleaseChunks
	numFaultOps
)

func (op FaultOp) String() string {
	switch op {
	case OpSave:
		return "Save"
	case OpSaveDelta:
		return "SaveDelta"
	case OpSaveShard:
		return "SaveShard"
	case OpSaveShardDelta:
		return "SaveShardDelta"
	case OpSaveManifest:
		return "SaveManifest"
	case OpLoad:
		return "Load"
	case OpLoadChain:
		return "LoadChain"
	case OpLoadShard:
		return "LoadShard"
	case OpLoadShardDelta:
		return "LoadShardDelta"
	case OpLoadManifest:
		return "LoadManifest"
	case OpClearDeltas:
		return "ClearDeltas"
	case OpClearShardDeltas:
		return "ClearShardDeltas"
	case OpPutChunk:
		return "PutChunk"
	case OpGetChunk:
		return "GetChunk"
	case OpReleaseChunks:
		return "ReleaseChunks"
	}
	return fmt.Sprintf("FaultOp(%d)", int(op))
}

// ErrInjectedFault is the error a FaultStore returns from an operation it
// was armed to fail.
type ErrInjectedFault struct {
	Op FaultOp
	N  int
}

func (e *ErrInjectedFault) Error() string {
	return fmt.Sprintf("ckpt: injected fault: %s call %d failed", e.Op, e.N)
}

// FaultStore is a Store for fault-injection tests: an in-memory Mem store
// (so every load exercises the real decode path) that can fail the Nth
// call of any operation class with an injected error, or simulate a TORN
// WRITE on the Nth save — the write "succeeds" but persists only a
// truncated prefix of the container, the way a crash mid-write without
// atomic rename would. Torn snapshots and deltas must be detected at load
// time by the container checksums and, for deltas, truncate the chain at
// the damaged link rather than half-applying it — the invariant the
// checkpoint path's crash-safety tests pin down.
//
// Counters are 1-based: Arm(OpSave, 2, ...) fails the second Save. A
// FaultStore is safe for concurrent use, like any Store.
type FaultStore struct {
	mem *Mem

	mu     sync.Mutex // guards the counters
	counts [numFaultOps]int
	failAt [numFaultOps]int
	tearAt [numFaultOps]int
}

var _ Store = (*FaultStore)(nil)

// NewFault creates an empty FaultStore with no faults armed.
func NewFault() *FaultStore { return &FaultStore{mem: NewMem()} }

// Arm makes the Nth call (1-based, counted from now) of op fail with an
// *ErrInjectedFault. Arming with n <= 0 disarms the class.
func (s *FaultStore) Arm(op FaultOp, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAt[op] = s.offset(op, n)
}

// ArmTorn makes the Nth call (1-based, counted from now) of a save-class
// op report success while persisting only half the encoded container.
func (s *FaultStore) ArmTorn(op FaultOp, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tearAt[op] = s.offset(op, n)
}

func (s *FaultStore) offset(op FaultOp, n int) int {
	if n <= 0 {
		return 0
	}
	return s.counts[op] + n
}

// Disarm clears every armed fault; stored snapshots survive.
func (s *FaultStore) Disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAt = [numFaultOps]int{}
	s.tearAt = [numFaultOps]int{}
}

// Ops reports how many calls of op have been made so far (including the
// failed and torn ones) — used to size exhaustive every-Nth-call sweeps.
func (s *FaultStore) Ops(op FaultOp) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[op]
}

// step counts one call of op and reports whether it must fail or tear.
func (s *FaultStore) step(op FaultOp) (fail error, tear bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[op]++
	if s.failAt[op] == s.counts[op] {
		return &ErrInjectedFault{Op: op, N: s.counts[op]}, false
	}
	return nil, s.tearAt[op] == s.counts[op]
}

// fail counts one call of op and reports its injected fault, if any.
func (s *FaultStore) fail(op FaultOp) error {
	err, _ := s.step(op)
	return err
}

func (s *FaultStore) putBlob(op FaultOp, key string, encode func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return err
	}
	fail, tear := s.step(op)
	if fail != nil {
		return fail
	}
	blob := buf.Bytes()
	if tear {
		blob = blob[:len(blob)/2]
	}
	s.mem.mu.Lock()
	defer s.mem.mu.Unlock()
	s.mem.blobs[key] = blob
	return nil
}

// Save stores the canonical snapshot (subject to OpSave faults).
func (s *FaultStore) Save(snap *serial.Snapshot) error {
	return s.putBlob(OpSave, memKey(snap.App, -1), snap.Encode)
}

// SaveShard stores one rank's snapshot (subject to OpSaveShard faults).
func (s *FaultStore) SaveShard(snap *serial.Snapshot, rank int) error {
	return s.putBlob(OpSaveShard, memKey(snap.App, rank), snap.Encode)
}

// SaveDelta appends one delta link (subject to OpSaveDelta faults).
func (s *FaultStore) SaveDelta(d *serial.Delta) error {
	if d.Seq == 0 {
		return fmt.Errorf("ckpt: delta for %q has no chain sequence number", d.App)
	}
	return s.putBlob(OpSaveDelta, memDeltaKey(d.App, d.Seq), d.Encode)
}

// SaveShardDelta appends one shard-chain link (subject to OpSaveShardDelta
// faults, including torn writes — the mid-write kill of one rank of a
// multi-shard save that the manifest gate exists for).
func (s *FaultStore) SaveShardDelta(d *serial.Delta, rank int) error {
	if d.Seq == 0 {
		return fmt.Errorf("ckpt: shard delta for %q has no chain sequence number", d.App)
	}
	return s.putBlob(OpSaveShardDelta, memShardDeltaKey(d.App, rank, d.Seq), d.Encode)
}

// SaveManifest replaces the commit record (subject to OpSaveManifest
// faults; a torn manifest is the one artifact whose damage surfaces loudly
// at restart, exactly like a torn canonical base — the stock FS store's
// rename atomicity rules both out).
func (s *FaultStore) SaveManifest(m *serial.Manifest) error {
	return s.putBlob(OpSaveManifest, m.App+".manifest.ckpt", m.Encode)
}

// Load reads the canonical snapshot (subject to OpLoad faults). A torn
// snapshot reports found=true with the decode error, matching FS.
func (s *FaultStore) Load(app string) (*serial.Snapshot, bool, error) {
	if err := s.fail(OpLoad); err != nil {
		return nil, false, err
	}
	return s.mem.Load(app)
}

// LoadShard reads rank's snapshot (subject to OpLoadShard faults).
func (s *FaultStore) LoadShard(app string, rank int) (*serial.Snapshot, bool, error) {
	if err := s.fail(OpLoadShard); err != nil {
		return nil, false, err
	}
	return s.mem.LoadShard(app, rank)
}

// LoadChain reads the canonical snapshot plus the longest consistent
// prefix of its delta chain (subject to OpLoadChain faults); torn links
// truncate the chain exactly as they do in the stock stores.
func (s *FaultStore) LoadChain(app string) (*serial.Snapshot, []*serial.Delta, bool, error) {
	if err := s.fail(OpLoadChain); err != nil {
		return nil, nil, false, err
	}
	return s.mem.LoadChain(app)
}

// LoadShardDelta reads one shard-chain link (subject to OpLoadShardDelta
// faults); a torn link reports found=true with the decode error.
func (s *FaultStore) LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error) {
	if err := s.fail(OpLoadShardDelta); err != nil {
		return nil, false, err
	}
	return s.mem.LoadShardDelta(app, rank, seq)
}

// LoadManifest reads the commit record (subject to OpLoadManifest faults).
func (s *FaultStore) LoadManifest(app string) (*serial.Manifest, bool, error) {
	if err := s.fail(OpLoadManifest); err != nil {
		return nil, false, err
	}
	return s.mem.LoadManifest(app)
}

// Clear removes all snapshots for app (never faulted: tests use it for
// setup, not as part of the exercised path).
func (s *FaultStore) Clear(app string) error { return s.mem.Clear(app) }

// ClearDeltas removes app's delta chain (subject to OpClearDeltas faults —
// a compaction that persists its new base and then fails to GC the old
// chain is exactly the crash window LoadChain's staleness rules cover).
func (s *FaultStore) ClearDeltas(app string) error {
	if err := s.fail(OpClearDeltas); err != nil {
		return err
	}
	return s.mem.ClearDeltas(app)
}

// ClearShardDeltas removes rank's chain links below the bound (subject to
// OpClearShardDeltas faults — the post-commit GC window, where a crash must
// only ever leave stale links the manifest no longer references).
func (s *FaultStore) ClearShardDeltas(app string, rank int, below uint64) error {
	if err := s.fail(OpClearShardDeltas); err != nil {
		return err
	}
	return s.mem.ClearShardDeltas(app, rank, below)
}

// PutChunk stores (or refcounts) one content-addressed chunk, subject to
// OpPutChunk faults — the put-before-link window: a failed put must abort
// the save before any artifact references the missing chunk. A torn put
// persists only half the payload, the way a crash mid-chunk-write without
// atomic rename would.
func (s *FaultStore) PutChunk(key string, payload []byte) (bool, error) {
	fail, tear := s.step(OpPutChunk)
	if fail != nil {
		return false, fail
	}
	if tear {
		payload = payload[:len(payload)/2]
	}
	return s.mem.PutChunk(key, payload)
}

// GetChunk reads one chunk payload (subject to OpGetChunk faults).
func (s *FaultStore) GetChunk(key string) ([]byte, bool, error) {
	if err := s.fail(OpGetChunk); err != nil {
		return nil, false, err
	}
	return s.mem.GetChunk(key)
}

// ReleaseChunks drops references (subject to OpReleaseChunks faults — the
// clear-before-release GC window, where a crash must only ever leak chunks,
// never dangle a reference).
func (s *FaultStore) ReleaseChunks(keys []string) error {
	if err := s.fail(OpReleaseChunks); err != nil {
		return err
	}
	return s.mem.ReleaseChunks(keys)
}

// LedgerStart marks the run as in progress.
func (s *FaultStore) LedgerStart(app string) error { return s.mem.LedgerStart(app) }

// LedgerFinish marks the run as cleanly completed.
func (s *FaultStore) LedgerFinish(app string) error { return s.mem.LedgerFinish(app) }

// Crashed reports whether a run was started and never finished.
func (s *FaultStore) Crashed(app string) (bool, error) { return s.mem.Crashed(app) }
