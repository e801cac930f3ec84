// Package ckpt implements the checkpoint machinery of §IV.A: pluggable
// snapshot stores (filesystem, in-memory, and a gzip-compressing wrapper),
// the run ledger (the paper's pcr module, which "verifies if the last
// execution was concluded without failures" by rewriting main), the
// checkpoint policy ("a checkpoint might be taken only after a set of safe
// points"), and the replay state machine used for restart and for
// bootstrapping new threads/processes during run-time adaptation.
package ckpt

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"ppar/internal/serial"
)

// Store is a pluggable checkpoint backend: it persists canonical and
// per-rank shard snapshots and keeps the crash ledger that decides whether
// the next run must replay. Implementations must be safe for concurrent use
// by multiple ranks (SaveShard/LoadShard are called from every replica of a
// distributed run).
type Store interface {
	// Save atomically writes the canonical (whole-application) snapshot,
	// replacing any previous one for the same application.
	Save(snap *serial.Snapshot) error
	// SaveShard atomically writes one rank's local snapshot (the paper's
	// first distributed-memory alternative, where "each process takes a
	// local snapshot").
	SaveShard(snap *serial.Snapshot, rank int) error
	// SaveDelta atomically appends one incremental checkpoint to the
	// canonical delta chain. The caller assigns Seq contiguously from 1
	// after each full Save; a crash mid-write must never damage earlier
	// links.
	SaveDelta(d *serial.Delta) error
	// Load reads the canonical snapshot for app. found=false (with nil
	// error) means no checkpoint exists.
	Load(app string) (snap *serial.Snapshot, found bool, err error)
	// LoadChain reads the canonical snapshot plus the longest consistent
	// prefix of its delta chain: deltas are returned in Seq order starting
	// at 1 and the chain is truncated at the first missing, corrupt (e.g.
	// torn write) or stale link — a stale delta is one whose BaseSP does
	// not match the base snapshot, left behind by a compaction that
	// crashed between writing the new base and clearing old deltas. Each
	// returned prefix is itself a consistent checkpoint, so truncation is
	// always safe. found and err describe the base snapshot exactly as in
	// Load.
	LoadChain(app string) (base *serial.Snapshot, deltas []*serial.Delta, found bool, err error)
	// LoadShard reads rank's local snapshot.
	LoadShard(app string, rank int) (snap *serial.Snapshot, found bool, err error)

	// SaveShardDelta atomically appends one link to rank's shard chain
	// (app.rN.dM.ckpt for chain position M = d.Seq). Shard chains are
	// append-only: the caller assigns Seq monotonically — continuing past
	// the newest committed manifest after a restart — so a committed link
	// is never overwritten in place; anchor links (serial.AnchorDelta)
	// carry the rank's full state, plain links only the changed chunks.
	SaveShardDelta(d *serial.Delta, rank int) error
	// LoadShardDelta reads one link of rank's shard chain. found=false with
	// nil error means the link does not exist; a link that exists but is
	// damaged (torn write) reports found=true with the decode error.
	LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error)
	// ClearShardDeltas removes the links of rank's shard chain with Seq
	// below the given bound (0 removes every link) — the per-chain garbage
	// collection run after a manifest referencing a newer anchor has
	// committed, in that order, so a crash in between leaves stale links
	// the manifest never references rather than a missing restart point.
	ClearShardDeltas(app string, rank int, below uint64) error
	// SaveManifest atomically replaces the shard-checkpoint commit record
	// for m.App. It is written last, after every shard artifact of a save
	// wave has been persisted: a save without a manifest is not a restart
	// point, which is what keeps a torn multi-shard save from ever being
	// mistaken for a complete one.
	SaveManifest(m *serial.Manifest) error
	// LoadManifest reads the commit record, following the Load conventions
	// (found=false means no sharded restart point exists).
	LoadManifest(app string) (*serial.Manifest, bool, error)

	// Clear removes all snapshots (canonical, deltas, shards, shard chains
	// and the manifest) for app.
	Clear(app string) error
	// ClearDeltas removes only the delta chain for app — compaction's
	// garbage collection, called after a new full snapshot has been
	// persisted (in that order, so a crash in between leaves stale deltas
	// that LoadChain filters out rather than a missing restart point).
	ClearDeltas(app string) error

	// PutChunk stores one content-addressed chunk payload under key
	// (serial.ChunkKey of the payload) and takes one reference to it. If a
	// chunk with the key already exists its reference count is incremented
	// instead and dup reports true — the deduplication mechanism: identical
	// chunks across deltas, shards, applications and (via Namespaced)
	// tenants are stored once. Implementations must not retain payload
	// after the call returns. Callers must put every chunk BEFORE saving an
	// artifact that references it, so a crash can only ever leak an
	// unreferenced chunk, never persist a dangling reference. Counts need
	// not persist across processes: a chunk already stored when a process
	// first puts it may be kept for good (FS pins it) rather than counted.
	PutChunk(key string, payload []byte) (dup bool, err error)
	// GetChunk reads one chunk payload. found=false with nil error means no
	// chunk with the key exists.
	GetChunk(key string) (payload []byte, found bool, err error)
	// ReleaseChunks drops one reference from each named chunk, deleting a
	// chunk when its count reaches zero. Callers must release only AFTER
	// the last artifact referencing the chunks has been cleared (mirroring
	// the manifest-then-GC ordering of the shard chains): a crash between
	// the two leaks chunks rather than dangling references. Releasing an
	// unknown key is not an error (a leaked chunk may already be gone), and
	// a release only drops references taken in the same process.
	ReleaseChunks(keys []string) error

	// LedgerStart marks a run of app as in progress (the pcr module).
	LedgerStart(app string) error
	// LedgerFinish marks the run as cleanly completed.
	LedgerFinish(app string) error
	// Crashed reports whether the previous run of app failed to conclude —
	// a start marker with no matching finish.
	Crashed(app string) (bool, error)
}

// FS is the filesystem Store: one file per snapshot inside Dir, with
// write-to-temp-then-rename atomicity so a failure during checkpointing
// never destroys the previous valid checkpoint. The ledger is a marker
// file created at LedgerStart and removed at LedgerFinish. Create it with
// NewFS.
type FS struct {
	Dir string

	// cas is the chunk reference table of Dir, shared by every FS over
	// the same directory in this process.
	cas *casTable
}

var _ Store = (*FS)(nil)

// NewFS creates a filesystem store rooted at dir, creating it if needed.
func NewFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating store dir: %w", err)
	}
	cas, err := casTableFor(dir)
	if err != nil {
		return nil, err
	}
	return &FS{Dir: dir, cas: cas}, nil
}

func (s *FS) path(app string, shard int) string {
	if shard < 0 {
		return filepath.Join(s.Dir, app+".ckpt")
	}
	return filepath.Join(s.Dir, fmt.Sprintf("%s.r%d.ckpt", app, shard))
}

func (s *FS) deltaPath(app string, seq uint64) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s.d%d.ckpt", app, seq))
}

func (s *FS) shardDeltaPath(app string, rank int, seq uint64) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s.r%d.d%d.ckpt", app, rank, seq))
}

func (s *FS) manifestPath(app string) string {
	return filepath.Join(s.Dir, app+".manifest.ckpt")
}

// Save atomically writes a canonical (whole-application) snapshot.
func (s *FS) Save(snap *serial.Snapshot) error {
	return s.save(snap, -1)
}

// SaveShard atomically writes one rank's local snapshot.
func (s *FS) SaveShard(snap *serial.Snapshot, rank int) error {
	return s.save(snap, rank)
}

func (s *FS) save(snap *serial.Snapshot, shard int) error {
	return s.writeAtomic(s.path(snap.App, shard), snap.Encode)
}

// SaveDelta atomically appends one delta checkpoint (app.dN.ckpt for chain
// position N) with the same temp-then-rename-then-dirsync discipline as
// full snapshots, so a torn write leaves either a complete link or none.
func (s *FS) SaveDelta(d *serial.Delta) error {
	if d.Seq == 0 {
		return fmt.Errorf("ckpt: delta for %q has no chain sequence number", d.App)
	}
	return s.writeAtomic(s.deltaPath(d.App, d.Seq), d.Encode)
}

// writeAtomic commits one artifact: a synced temp file renamed over final,
// then a directory sync that makes the rename durable. Chunks an artifact
// references must land before it, so the directory is also synced before
// the rename whenever a chunk rename is not yet covered by a completed
// directory sync: one extra sync per artifact instead of one per chunk.
func (s *FS) writeAtomic(final string, encode func(io.Writer) error) error {
	return s.commit(final, encode, false)
}

// commit writes encode's output to a synced temp file and renames it over
// final. Chunk commits stop there; the caller counts the rename.
func (s *FS) commit(final string, encode func(io.Writer) error, chunk bool) (err error) {
	tmp, err := os.CreateTemp(s.Dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: temp file: %w", err)
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if err := encode(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: encoding snapshot: %w", err)
	}
	if err := s.cas.fsync(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close: %w", err)
	}
	if !chunk {
		if err := s.cas.syncDir(s.Dir, false); err != nil {
			return fmt.Errorf("ckpt: sync dir: %w", err)
		}
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	if chunk {
		return nil
	}
	// The rename is only durable once the directory entry itself is on
	// disk: without the parent fsync a power failure can lose the
	// just-renamed checkpoint even though the data blocks were synced.
	if err := s.cas.syncDir(s.Dir, true); err != nil {
		return fmt.Errorf("ckpt: sync dir: %w", err)
	}
	return nil
}

// Load reads the canonical snapshot for app.
func (s *FS) Load(app string) (snap *serial.Snapshot, found bool, err error) {
	return s.load(app, -1)
}

// LoadChain reads the canonical snapshot plus the longest consistent
// prefix of its delta chain (see Store.LoadChain for the truncation rules).
func (s *FS) LoadChain(app string) (*serial.Snapshot, []*serial.Delta, bool, error) {
	base, found, err := s.load(app, -1)
	if err != nil || !found {
		return nil, nil, found, err
	}
	var deltas []*serial.Delta
	for seq := uint64(1); ; seq++ {
		f, err := os.Open(s.deltaPath(app, seq))
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			break // unreadable link ends the (still consistent) prefix
		}
		d, derr := serial.DecodeDelta(f)
		f.Close()
		if derr != nil || !chainLink(base, d, seq) {
			break
		}
		deltas = append(deltas, d)
	}
	return base, deltas, true, nil
}

// chainLink reports whether d is the valid next link of base's chain: the
// right application, anchored at this base (not a stale pre-compaction
// delta), in the expected position.
func chainLink(base *serial.Snapshot, d *serial.Delta, seq uint64) bool {
	return d.App == base.App && d.BaseSP == base.SafePoints && d.Seq == seq
}

// LoadShard reads rank's local snapshot.
func (s *FS) LoadShard(app string, rank int) (snap *serial.Snapshot, found bool, err error) {
	return s.load(app, rank)
}

// SaveShardDelta atomically appends one link to rank's shard chain with the
// same temp-then-rename-then-dirsync discipline as every other artifact.
func (s *FS) SaveShardDelta(d *serial.Delta, rank int) error {
	if d.Seq == 0 {
		return fmt.Errorf("ckpt: shard delta for %q has no chain sequence number", d.App)
	}
	return s.writeAtomic(s.shardDeltaPath(d.App, rank, d.Seq), d.Encode)
}

// LoadShardDelta reads one link of rank's shard chain.
func (s *FS) LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error) {
	f, err := os.Open(s.shardDeltaPath(app, rank, seq))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: open: %w", err)
	}
	defer f.Close()
	d, err := serial.DecodeDelta(f)
	if err != nil {
		return nil, true, fmt.Errorf("ckpt: decode %s: %w", s.shardDeltaPath(app, rank, seq), err)
	}
	return d, true, nil
}

// ClearShardDeltas removes rank's chain links below the given sequence
// number (0 removes all of them).
func (s *FS) ClearShardDeltas(app string, rank int, below uint64) error {
	return s.clearMatching(func(name string) bool {
		seq, ok := shardChainSeq(name, app, rank)
		return ok && (below == 0 || seq < below)
	})
}

// SaveManifest atomically replaces the shard-checkpoint commit record.
func (s *FS) SaveManifest(m *serial.Manifest) error {
	return s.writeAtomic(s.manifestPath(m.App), m.Encode)
}

// LoadManifest reads the shard-checkpoint commit record. A manifest that
// exists but is damaged reports found=true with the decode error, so
// callers can distinguish "no sharded restart point" from "commit record
// corrupt".
func (s *FS) LoadManifest(app string) (*serial.Manifest, bool, error) {
	f, err := os.Open(s.manifestPath(app))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: open: %w", err)
	}
	defer f.Close()
	m, err := serial.DecodeManifest(f)
	if err != nil {
		return nil, true, fmt.Errorf("ckpt: decode %s: %w", s.manifestPath(app), err)
	}
	return m, true, nil
}

func (s *FS) load(app string, shard int) (*serial.Snapshot, bool, error) {
	f, err := os.Open(s.path(app, shard))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: open: %w", err)
	}
	defer f.Close()
	snap, err := serial.Decode(f)
	if err != nil {
		// The snapshot exists but is damaged: found=true, so callers can
		// distinguish "no restart point" from "restart point corrupt".
		return nil, true, fmt.Errorf("ckpt: decode %s: %w", s.path(app, shard), err)
	}
	return snap, true, nil
}

// Clear removes all snapshots (canonical, deltas, shards, shard chains and
// the manifest) for app. Only the exact app.ckpt / app.rN.ckpt /
// app.dN.ckpt / app.rN.dM.ckpt / app.manifest.ckpt names are matched: a
// prefix glob would also delete checkpoints of any application whose name
// merely starts with app (clearing "sor" must not wipe "sor-large").
func (s *FS) Clear(app string) error {
	return s.clearMatching(func(name string) bool { return ownedName(name, app) })
}

// ownedName reports whether name is one of app's checkpoint artifacts.
func ownedName(name, app string) bool {
	return name == app+".ckpt" || name == app+".manifest.ckpt" ||
		isSeqFile(name, app, 'r') || isSeqFile(name, app, 'd') ||
		isShardChainFile(name, app)
}

// ClearDeltas removes only the app.dN.ckpt delta chain.
func (s *FS) ClearDeltas(app string) error {
	return s.clearMatching(func(name string) bool { return isSeqFile(name, app, 'd') })
}

func (s *FS) clearMatching(match func(string) bool) error {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return fmt.Errorf("ckpt: clear: %w", err)
	}
	for _, e := range entries {
		if !match(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(s.Dir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("ckpt: clear: %w", err)
		}
	}
	return nil
}

// isSeqFile reports whether name is exactly app.<kind>N.ckpt for a decimal
// N — the shard ('r') and delta ('d') naming schemes.
func isSeqFile(name, app string, kind byte) bool {
	rest, ok := strings.CutPrefix(name, app+"."+string(kind))
	if !ok {
		return false
	}
	digits, ok := strings.CutSuffix(rest, ".ckpt")
	return ok && allDigits(digits)
}

// isShardChainFile reports whether name is exactly app.rN.dM.ckpt for
// decimal N and M — a link of any rank's shard chain.
func isShardChainFile(name, app string) bool {
	rest, ok := strings.CutPrefix(name, app+".r")
	if !ok {
		return false
	}
	rank, rest, ok := strings.Cut(rest, ".d")
	if !ok || !allDigits(rank) {
		return false
	}
	digits, ok := strings.CutSuffix(rest, ".ckpt")
	return ok && allDigits(digits)
}

// shardChainSeq parses name as a link of ONE rank's chain, returning its
// sequence number.
func shardChainSeq(name, app string, rank int) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, fmt.Sprintf("%s.r%d.d", app, rank))
	if !ok {
		return 0, false
	}
	digits, ok := strings.CutSuffix(rest, ".ckpt")
	if !ok || !allDigits(digits) {
		return 0, false
	}
	var seq uint64
	for _, c := range digits {
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func (s *FS) ledgerPath(app string) string { return filepath.Join(s.Dir, app+".run") }

// LedgerStart marks the run as in progress.
func (s *FS) LedgerStart(app string) error {
	f, err := os.OpenFile(s.ledgerPath(app), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: ledger start: %w", err)
	}
	_, werr := f.WriteString("running\n")
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("ckpt: ledger write: %w", werr)
	}
	return cerr
}

// LedgerFinish marks the run as cleanly completed; it is idempotent.
func (s *FS) LedgerFinish(app string) error {
	if err := os.Remove(s.ledgerPath(app)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("ckpt: ledger finish: %w", err)
	}
	return nil
}

// Crashed reports whether the previous execution failed to conclude.
func (s *FS) Crashed(app string) (bool, error) {
	_, err := os.Stat(s.ledgerPath(app))
	if err == nil {
		return true, nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return false, fmt.Errorf("ckpt: ledger stat: %w", err)
}

// Chunk files live beside the checkpoint artifacts as cas-<key>.chunk.
// The name does not end in ".ckpt", so Clear and the exact-name matchers
// never touch them: chunks are shared across applications (and tenants)
// and are reclaimed only by ReleaseChunks. Reference counts live in the
// directory's casTable, in memory; cas-<key>.ref sidecars written by older
// versions are ignored.
func (s *FS) chunkPath(key string) string {
	return filepath.Join(s.Dir, "cas-"+key+".chunk")
}

// casTable is the chunk reference table of one store directory. refs
// counts the references taken in this process, or holds pinned for a chunk
// that was already on disk when first put here (an earlier process wrote
// it and may still reference it), which this process never deletes.
// renames counts chunk renames, and synced is the value renames had when
// the last completed directory sync started: renames > synced means a
// chunk rename may not be durable yet. Every file and directory sync in
// the directory goes through fsync, which counts it in syncs.
type casTable struct {
	mu   sync.Mutex // guards refs; held across a chunk write
	refs map[string]int

	syncMu  sync.Mutex // guards renames and synced
	renames uint64
	synced  uint64

	syncs atomic.Int64
}

const pinned = -1

// casTables holds one table per cleaned absolute store directory, so
// every FS over a directory in this process shares its counts.
var (
	casTablesMu sync.Mutex
	casTables   = map[string]*casTable{}
)

func casTableFor(dir string) (*casTable, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: store dir: %w", err)
	}
	casTablesMu.Lock()
	defer casTablesMu.Unlock()
	t := casTables[abs]
	if t == nil {
		t = &casTable{refs: map[string]int{}}
		casTables[abs] = t
	}
	return t, nil
}

// syncDir syncs dir — always when force is set, otherwise only if a chunk
// rename is not yet covered by a completed directory sync.
func (t *casTable) syncDir(dir string, force bool) error {
	t.syncMu.Lock()
	start, synced := t.renames, t.synced
	t.syncMu.Unlock()
	if !force && start == synced {
		return nil
	}
	if runtime.GOOS != "windows" {
		// Directory handles cannot be fsynced on Windows; the rename
		// itself is the best durability available there.
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = t.fsync(d)
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	t.syncMu.Lock()
	t.synced = max(t.synced, start)
	t.syncMu.Unlock()
	return nil
}

func (t *casTable) fsync(f *os.File) error {
	t.syncs.Add(1)
	return f.Sync()
}

// PutChunk takes one reference to a content-addressed chunk. A chunk the
// table knows costs no syscall; one already on disk but unknown to the
// table is pinned; a new one is written to a synced temp file and renamed
// into place, leaving the directory sync to the next artifact commit
// (see writeAtomic).
func (s *FS) PutChunk(key string, payload []byte) (bool, error) {
	t := s.cas
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.refs[key]; ok {
		if n != pinned {
			t.refs[key] = n + 1
		}
		return true, nil
	}
	path := s.chunkPath(key)
	if _, err := os.Stat(path); err == nil {
		t.refs[key] = pinned
		return true, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return false, fmt.Errorf("ckpt: chunk stat: %w", err)
	}
	err := s.commit(path, func(w io.Writer) error {
		_, werr := w.Write(payload)
		return werr
	}, true)
	if err != nil {
		return false, err
	}
	t.syncMu.Lock()
	t.renames++
	t.syncMu.Unlock()
	t.refs[key] = 1
	return false, nil
}

// GetChunk reads one chunk payload.
func (s *FS) GetChunk(key string) ([]byte, bool, error) {
	b, err := os.ReadFile(s.chunkPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: chunk read: %w", err)
	}
	return b, true, nil
}

// ReleaseChunks drops one reference from each chunk and unlinks a chunk
// whose last reference goes. Pinned chunks and keys the table does not
// know are skipped. No sync is needed: a lost unlink only leaks a chunk.
func (s *FS) ReleaseChunks(keys []string) error {
	t := s.cas
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, key := range keys {
		switch n := t.refs[key]; {
		case n == pinned || n == 0:
			continue
		case n > 1:
			t.refs[key] = n - 1
			continue
		}
		delete(t.refs, key)
		if err := os.Remove(s.chunkPath(key)); err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = fmt.Errorf("ckpt: chunk release: %w", err)
		}
	}
	return first
}

// Mem is an in-memory Store for fast tests and embedded use. Snapshots are
// kept in their encoded container form, so Save/Load exercise the same
// serialisation path as the filesystem store and loaded snapshots never
// alias the saver's field slices. A Mem value must be shared (not copied)
// between the runs that are meant to see each other's checkpoints.
type Mem struct {
	mu        sync.Mutex
	blobs     map[string][]byte
	running   map[string]bool
	chunks    map[string][]byte
	chunkRefs map[string]int
}

var _ Store = (*Mem)(nil)

// NewMem creates an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		blobs: map[string][]byte{}, running: map[string]bool{},
		chunks: map[string][]byte{}, chunkRefs: map[string]int{},
	}
}

// Size reports the store's live footprint: how many artifacts it holds
// (snapshot/delta/manifest blobs plus dedup chunks) and their total encoded
// bytes. Soak tests assert this stays bounded across arbitrarily long
// churn — a chain that is never compacted or a relaunch that leaks old
// artifacts shows up here as monotone growth.
func (s *Mem) Size() (items int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.blobs {
		bytes += int64(len(b))
	}
	for _, b := range s.chunks {
		bytes += int64(len(b))
	}
	return len(s.blobs) + len(s.chunks), bytes
}

// PutChunk stores one content-addressed chunk, or bumps its reference count
// if the content is already present. The payload is copied: stores must not
// retain caller memory (the serialisation pools recycle it).
func (s *Mem) PutChunk(key string, payload []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.chunks[key]; ok {
		s.chunkRefs[key]++
		return true, nil
	}
	s.chunks[key] = append([]byte(nil), payload...)
	s.chunkRefs[key] = 1
	return false, nil
}

// GetChunk reads one chunk payload.
func (s *Mem) GetChunk(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.chunks[key]
	return b, ok, nil
}

// ReleaseChunks drops one reference from each chunk, deleting chunks whose
// count reaches zero; unknown keys are skipped.
func (s *Mem) ReleaseChunks(keys []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range keys {
		if _, ok := s.chunks[key]; !ok {
			continue
		}
		if s.chunkRefs[key]--; s.chunkRefs[key] <= 0 {
			delete(s.chunks, key)
			delete(s.chunkRefs, key)
		}
	}
	return nil
}

func memKey(app string, shard int) string {
	if shard < 0 {
		return app + ".ckpt"
	}
	return fmt.Sprintf("%s.r%d.ckpt", app, shard)
}

func (s *Mem) put(snap *serial.Snapshot, shard int) error {
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		return fmt.Errorf("ckpt: encoding snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[memKey(snap.App, shard)] = buf.Bytes()
	return nil
}

func (s *Mem) get(app string, shard int) (*serial.Snapshot, bool, error) {
	s.mu.Lock()
	blob, ok := s.blobs[memKey(app, shard)]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	snap, err := serial.Decode(bytes.NewReader(blob))
	if err != nil {
		// Exists but damaged: found=true, matching FS and Gzip.
		return nil, true, fmt.Errorf("ckpt: decode %s: %w", memKey(app, shard), err)
	}
	return snap, true, nil
}

// Save stores the canonical snapshot.
func (s *Mem) Save(snap *serial.Snapshot) error { return s.put(snap, -1) }

// SaveShard stores one rank's snapshot.
func (s *Mem) SaveShard(snap *serial.Snapshot, rank int) error { return s.put(snap, rank) }

// SaveDelta stores one delta checkpoint in its encoded container form, so
// loads exercise the same decode path as the filesystem store.
func (s *Mem) SaveDelta(d *serial.Delta) error {
	if d.Seq == 0 {
		return fmt.Errorf("ckpt: delta for %q has no chain sequence number", d.App)
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		return fmt.Errorf("ckpt: encoding delta: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[memDeltaKey(d.App, d.Seq)] = buf.Bytes()
	return nil
}

func memDeltaKey(app string, seq uint64) string {
	return fmt.Sprintf("%s.d%d.ckpt", app, seq)
}

// Load reads the canonical snapshot.
func (s *Mem) Load(app string) (*serial.Snapshot, bool, error) { return s.get(app, -1) }

// LoadChain reads the canonical snapshot plus the longest consistent
// prefix of its delta chain (see Store.LoadChain for the truncation rules).
func (s *Mem) LoadChain(app string) (*serial.Snapshot, []*serial.Delta, bool, error) {
	base, found, err := s.get(app, -1)
	if err != nil || !found {
		return nil, nil, found, err
	}
	var deltas []*serial.Delta
	for seq := uint64(1); ; seq++ {
		s.mu.Lock()
		blob, ok := s.blobs[memDeltaKey(app, seq)]
		s.mu.Unlock()
		if !ok {
			break
		}
		d, derr := serial.DecodeDelta(bytes.NewReader(blob))
		if derr != nil || !chainLink(base, d, seq) {
			break
		}
		deltas = append(deltas, d)
	}
	return base, deltas, true, nil
}

// LoadShard reads rank's snapshot.
func (s *Mem) LoadShard(app string, rank int) (*serial.Snapshot, bool, error) {
	return s.get(app, rank)
}

func memShardDeltaKey(app string, rank int, seq uint64) string {
	return fmt.Sprintf("%s.r%d.d%d.ckpt", app, rank, seq)
}

// SaveShardDelta appends one link to rank's shard chain, stored in its
// encoded container form like every other artifact.
func (s *Mem) SaveShardDelta(d *serial.Delta, rank int) error {
	if d.Seq == 0 {
		return fmt.Errorf("ckpt: shard delta for %q has no chain sequence number", d.App)
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		return fmt.Errorf("ckpt: encoding shard delta: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[memShardDeltaKey(d.App, rank, d.Seq)] = buf.Bytes()
	return nil
}

// LoadShardDelta reads one link of rank's shard chain.
func (s *Mem) LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error) {
	s.mu.Lock()
	blob, ok := s.blobs[memShardDeltaKey(app, rank, seq)]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	d, err := serial.DecodeDelta(bytes.NewReader(blob))
	if err != nil {
		return nil, true, fmt.Errorf("ckpt: decode %s: %w", memShardDeltaKey(app, rank, seq), err)
	}
	return d, true, nil
}

// ClearShardDeltas removes rank's chain links below the given sequence
// number (0 removes all of them).
func (s *Mem) ClearShardDeltas(app string, rank int, below uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.blobs {
		if seq, ok := shardChainSeq(k, app, rank); ok && (below == 0 || seq < below) {
			delete(s.blobs, k)
		}
	}
	return nil
}

// SaveManifest replaces the shard-checkpoint commit record.
func (s *Mem) SaveManifest(m *serial.Manifest) error {
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return fmt.Errorf("ckpt: encoding manifest: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[m.App+".manifest.ckpt"] = buf.Bytes()
	return nil
}

// LoadManifest reads the shard-checkpoint commit record.
func (s *Mem) LoadManifest(app string) (*serial.Manifest, bool, error) {
	s.mu.Lock()
	blob, ok := s.blobs[app+".manifest.ckpt"]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	m, err := serial.DecodeManifest(bytes.NewReader(blob))
	if err != nil {
		return nil, true, fmt.Errorf("ckpt: decode %s: %w", app+".manifest.ckpt", err)
	}
	return m, true, nil
}

// Clear removes all snapshots for app. Keys are matched exactly (canonical,
// shards, deltas, shard chains and the manifest): parsing with Sscanf would
// treat app as format text (mangling names containing %) and accept keys
// with trailing junk.
func (s *Mem) Clear(app string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.blobs {
		if ownedName(k, app) {
			delete(s.blobs, k)
		}
	}
	return nil
}

// ClearDeltas removes only app's delta chain.
func (s *Mem) ClearDeltas(app string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.blobs {
		if isSeqFile(k, app, 'd') {
			delete(s.blobs, k)
		}
	}
	return nil
}

// LedgerStart marks the run as in progress.
func (s *Mem) LedgerStart(app string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running[app] = true
	return nil
}

// LedgerFinish marks the run as cleanly completed.
func (s *Mem) LedgerFinish(app string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, app)
	return nil
}

// Crashed reports whether a run was started and never finished.
func (s *Mem) Crashed(app string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running[app], nil
}

// gzipMode marks envelope snapshots written by the Gzip wrapper.
const gzipMode = "gzip"

// gzipField is the single field of an envelope snapshot, holding the
// compressed container bytes of the real snapshot.
const gzipField = "__gz"

// Gzip wraps an inner Store with transparent gzip compression: snapshots
// are encoded, compressed, and stored through the inner store as a small
// envelope snapshot (one bytes field holding the compressed container).
// Loads pass envelopes back through gunzip and decode; snapshots written
// without the wrapper are returned unchanged, so a store can be upgraded to
// compression without invalidating existing checkpoints.
type Gzip struct {
	inner Store
	// Level is the gzip compression level (gzip.DefaultCompression when 0
	// is passed to NewGzip).
	level int
}

var _ Store = (*Gzip)(nil)

// NewGzip wraps inner with gzip compression at the given level; level 0
// selects gzip.DefaultCompression.
func NewGzip(inner Store, level int) *Gzip {
	if level == 0 {
		level = gzip.DefaultCompression
	}
	return &Gzip{inner: inner, level: level}
}

func (s *Gzip) compress(snap *serial.Snapshot) (*serial.Snapshot, error) {
	// Stream the container straight through the codec: no uncompressed
	// copy of the (potentially large) application state is materialised.
	var gz bytes.Buffer
	zw, err := gzip.NewWriterLevel(&gz, s.level)
	if err != nil {
		return nil, fmt.Errorf("ckpt: gzip writer: %w", err)
	}
	if err := snap.Encode(zw); err != nil {
		return nil, fmt.Errorf("ckpt: gzip encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("ckpt: gzip close: %w", err)
	}
	env := serial.NewSnapshot(snap.App, gzipMode, snap.SafePoints)
	env.Fields[gzipField] = serial.Bytes(gz.Bytes())
	return env, nil
}

func decompress(env *serial.Snapshot) (*serial.Snapshot, error) {
	v, ok := env.Fields[gzipField]
	if env.Mode != gzipMode || !ok {
		return env, nil // written without the wrapper: pass through
	}
	zr, err := gzip.NewReader(bytes.NewReader(v.B))
	if err != nil {
		return nil, fmt.Errorf("ckpt: gunzip: %w", err)
	}
	defer zr.Close()
	snap, err := serial.Decode(zr)
	if err != nil {
		return nil, fmt.Errorf("ckpt: decode compressed snapshot: %w", err)
	}
	return snap, nil
}

// Save compresses and stores the canonical snapshot.
func (s *Gzip) Save(snap *serial.Snapshot) error {
	env, err := s.compress(snap)
	if err != nil {
		return err
	}
	return s.inner.Save(env)
}

// SaveDelta compresses and stores one delta checkpoint. The envelope is
// itself a delta whose chain header (App/SafePoints/BaseSP/Seq) mirrors the
// real one in cleartext, so the inner store's LoadChain can validate link
// order and staleness without decompressing.
func (s *Gzip) SaveDelta(d *serial.Delta) error {
	env, err := s.compressDelta(d)
	if err != nil {
		return err
	}
	return s.inner.SaveDelta(env)
}

func (s *Gzip) compressDelta(d *serial.Delta) (*serial.Delta, error) {
	var gz bytes.Buffer
	zw, err := gzip.NewWriterLevel(&gz, s.level)
	if err != nil {
		return nil, fmt.Errorf("ckpt: gzip writer: %w", err)
	}
	if err := d.Encode(zw); err != nil {
		return nil, fmt.Errorf("ckpt: gzip delta encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("ckpt: gzip close: %w", err)
	}
	env := serial.NewDelta(d.App, gzipMode, d.SafePoints, d.BaseSP)
	env.Seq = d.Seq
	env.Full[gzipField] = serial.Bytes(gz.Bytes())
	return env, nil
}

// LoadChain reads and decompresses the canonical snapshot and its delta
// chain. An envelope that fails to decompress or decode truncates the
// chain at that link, exactly like a torn write in the inner store.
func (s *Gzip) LoadChain(app string) (*serial.Snapshot, []*serial.Delta, bool, error) {
	base, envs, found, err := s.inner.LoadChain(app)
	if err != nil || !found {
		return nil, nil, found, err
	}
	snap, err := decompress(base)
	if err != nil {
		return nil, nil, true, err
	}
	var deltas []*serial.Delta
	for _, env := range envs {
		d, derr := decompressDelta(env)
		if derr != nil || !chainLink(snap, d, env.Seq) {
			break
		}
		deltas = append(deltas, d)
	}
	return snap, deltas, true, nil
}

func decompressDelta(env *serial.Delta) (*serial.Delta, error) {
	v, ok := env.Full[gzipField]
	if env.Mode != gzipMode || !ok {
		return env, nil // written without the wrapper: pass through
	}
	zr, err := gzip.NewReader(bytes.NewReader(v.B))
	if err != nil {
		return nil, fmt.Errorf("ckpt: gunzip delta: %w", err)
	}
	defer zr.Close()
	d, err := serial.DecodeDelta(zr)
	if err != nil {
		return nil, fmt.Errorf("ckpt: decode compressed delta: %w", err)
	}
	return d, nil
}

// SaveShard compresses and stores one rank's snapshot.
func (s *Gzip) SaveShard(snap *serial.Snapshot, rank int) error {
	env, err := s.compress(snap)
	if err != nil {
		return err
	}
	return s.inner.SaveShard(env, rank)
}

// Load reads and decompresses the canonical snapshot. A snapshot that
// exists but fails to decompress reports found=true alongside the error —
// found=false means (only) that no checkpoint exists, and callers use it to
// decide whether a restart point is available at all.
func (s *Gzip) Load(app string) (*serial.Snapshot, bool, error) {
	env, found, err := s.inner.Load(app)
	if err != nil || !found {
		return nil, found, err
	}
	snap, err := decompress(env)
	if err != nil {
		return nil, true, err
	}
	return snap, true, nil
}

// LoadShard reads and decompresses rank's snapshot; like Load, a corrupt
// snapshot reports found=true with the error.
func (s *Gzip) LoadShard(app string, rank int) (*serial.Snapshot, bool, error) {
	env, found, err := s.inner.LoadShard(app, rank)
	if err != nil || !found {
		return nil, found, err
	}
	snap, err := decompress(env)
	if err != nil {
		return nil, true, err
	}
	return snap, true, nil
}

// SaveShardDelta compresses and appends one shard-chain link, using the
// same cleartext-header envelope as SaveDelta.
func (s *Gzip) SaveShardDelta(d *serial.Delta, rank int) error {
	env, err := s.compressDelta(d)
	if err != nil {
		return err
	}
	return s.inner.SaveShardDelta(env, rank)
}

// LoadShardDelta reads and decompresses one shard-chain link; like Load, a
// corrupt link reports found=true with the error.
func (s *Gzip) LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error) {
	env, found, err := s.inner.LoadShardDelta(app, rank, seq)
	if err != nil || !found {
		return nil, found, err
	}
	d, err := decompressDelta(env)
	if err != nil {
		return nil, true, err
	}
	return d, true, nil
}

// ClearShardDeltas delegates to the inner store.
func (s *Gzip) ClearShardDeltas(app string, rank int, below uint64) error {
	return s.inner.ClearShardDeltas(app, rank, below)
}

// SaveManifest delegates to the inner store: the commit record is a few
// dozen bytes and must stay independently decodable, so it is never
// compressed.
func (s *Gzip) SaveManifest(m *serial.Manifest) error { return s.inner.SaveManifest(m) }

// LoadManifest delegates to the inner store.
func (s *Gzip) LoadManifest(app string) (*serial.Manifest, bool, error) {
	return s.inner.LoadManifest(app)
}

// Clear delegates to the inner store.
func (s *Gzip) Clear(app string) error { return s.inner.Clear(app) }

// ClearDeltas delegates to the inner store.
func (s *Gzip) ClearDeltas(app string) error { return s.inner.ClearDeltas(app) }

// LedgerStart delegates to the inner store.
func (s *Gzip) LedgerStart(app string) error { return s.inner.LedgerStart(app) }

// LedgerFinish delegates to the inner store.
func (s *Gzip) LedgerFinish(app string) error { return s.inner.LedgerFinish(app) }

// Crashed delegates to the inner store.
func (s *Gzip) Crashed(app string) (bool, error) { return s.inner.Crashed(app) }

// PutChunk delegates to the inner store: chunk payloads are keyed by their
// exact content, so compressing them here would break the content address;
// a backend wanting compressed chunks compresses below the key.
func (s *Gzip) PutChunk(key string, payload []byte) (bool, error) {
	return s.inner.PutChunk(key, payload)
}

// GetChunk delegates to the inner store.
func (s *Gzip) GetChunk(key string) ([]byte, bool, error) { return s.inner.GetChunk(key) }

// ReleaseChunks delegates to the inner store.
func (s *Gzip) ReleaseChunks(keys []string) error { return s.inner.ReleaseChunks(keys) }
