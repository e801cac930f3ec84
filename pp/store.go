package pp

import (
	"ppar/internal/ckpt"
	"ppar/internal/serial"
)

// Store is the pluggable checkpoint backend: it persists canonical and
// per-rank shard snapshots and keeps the crash ledger that decides whether
// the next run must replay. Select one with WithStore; implement it to
// target remote or sharded storage. Implementations must be safe for
// concurrent use by multiple ranks.
type Store = ckpt.Store

// Snapshot is the portable in-memory form of one checkpoint (see
// ppar/internal/serial for the container format). Custom Store
// implementations receive and return snapshots.
type Snapshot = serial.Snapshot

// Delta is the in-memory form of one incremental checkpoint: the fields
// and chunks that changed since the previous capture, anchored to a full
// base snapshot by BaseSP and ordered by Seq (see ppar/internal/serial for
// the PPCKPD1 container format and the chain-consistency rules). Custom
// Store implementations persist deltas in SaveDelta and return them, in
// order, from LoadChain; WithDeltaCheckpoint turns the pipeline on.
//
// Shard chains (WithShardCheckpoints) reuse the same container per rank:
// SaveShardDelta appends one link to a rank's chain — a self-contained
// "anchor" link carrying the rank's full state, or a plain delta — and
// LoadShardDelta reads one back.
type Delta = serial.Delta

// Manifest is the commit record of one complete multi-shard checkpoint
// (the PPCKPS1 container): the safe point, the world size, and per shard
// the committed chain window plus the newest link's fingerprint. Custom
// Store implementations persist it last, atomically, in SaveManifest — a
// shard save without a manifest is not a restart point, which is what
// keeps a torn multi-shard save from ever being mistaken for a complete
// one.
type Manifest = serial.Manifest

// NewFSStore creates the stock filesystem store rooted at dir: one file per
// snapshot, written with temp-then-rename atomicity, plus a marker-file
// crash ledger. WithCheckpointDir(dir) is sugar for WithStore(NewFSStore(dir)).
func NewFSStore(dir string) (Store, error) { return ckpt.NewFS(dir) }

// NewMemStore creates the stock in-memory store: snapshots are held in
// their encoded container form inside the process. It makes tests fast and
// lets embedded uses checkpoint/restart (including across modes) without
// touching a filesystem; share the same value between the runs that must
// see each other's checkpoints.
func NewMemStore() Store { return ckpt.NewMem() }

// NamespacedStore wraps any Store so every application name is keyed under
// "<prefix>~": engines (or whole fleets of them) multiplexed over one
// backend under different prefixes can never see — or Clear — each other's
// checkpoints, even when one prefix is a prefix of another ("t1" vs "t10").
// The prefix must be non-empty and must not contain "~"; snapshots written
// through the wrapper read back with their original application name. It
// composes with the other wrappers in either order (namespacing a gzip
// store, or gzip-compressing a namespaced one).
func NamespacedStore(prefix string, inner Store) (Store, error) {
	return ckpt.NewNamespaced(prefix, inner)
}

// NewGzipStore wraps any Store with transparent gzip compression of the
// encoded snapshot container. Snapshots written without the wrapper are
// still readable through it, so a deployment can be upgraded to compression
// in place.
func NewGzipStore(inner Store) Store { return ckpt.NewGzip(inner, 0) }

// DedupStore wraps any Store with content-addressed deduplication: large
// float fields are split on the delta differ's fixed chunk grid and each
// distinct chunk content is stored once via the inner store's PutChunk,
// with reference counts tying chunk lifetime to the artifacts that use
// them. Identical chunks across full snapshots, deltas, shard ranks,
// compaction generations — and across tenants sharing one backend through
// NamespacedStore, whose chunk keys pass through unprefixed — are written
// once. Stats reports the cumulative logical-over-physical ratio.
//
// Compose it outermost (dedup of a gzip store, not the reverse): wrappers
// that envelope whole artifacts hide the float payloads from the chunker.
type DedupStore = ckpt.Dedup

// DedupStats is the cumulative accounting of a DedupStore; see
// DedupStats.Ratio for the headline number.
type DedupStats = ckpt.DedupStats

// NewDedupStore wraps inner with content-addressed deduplication.
func NewDedupStore(inner Store) *DedupStore { return ckpt.NewDedup(inner) }
