package ckpt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ppar/internal/serial"
)

// casFieldPrefix marks an envelope field holding the chunk references that
// replace a whole large float field, and casDeltaPrefix the references that
// replace one chunked delta section. Application field names come from Go
// struct fields and can never contain ':', so the prefixes are unambiguous.
const (
	casFieldPrefix = "__cas:"
	casDeltaPrefix = "__casd:"
)

// Dedup wraps an inner Store with content-addressed deduplication of large
// float state: every artifact saved through it has its big []float64 and
// [][]float64 payloads split on the same fixed grid the delta differ uses
// (serial.DeltaChunkElems elements per chunk, row groups covering about as
// much for matrices) and stored once per distinct content via the inner
// store's PutChunk. The artifact itself becomes a small envelope carrying
// chunk references, with every chain header (App/Mode/SafePoints/BaseSP/
// Seq) intact in cleartext, so the inner store's chain-consistency rules
// keep working unchanged. Because a chunk shipped in a delta and the same
// grid chunk of a full snapshot pack to identical bytes, deduplication
// applies across full and incremental captures, across shard ranks, across
// compaction generations — and across tenants, when the inner store is
// shared through Namespaced wrappers (chunk keys pass through namespaces
// unprefixed by design).
//
// Ordering contract (the chunk analogue of the manifest-then-GC rule the
// shard pipeline follows): chunks are put BEFORE the envelope that
// references them is saved, and references are released only AFTER the
// referencing artifact has been cleared. A crash anywhere in between leaks
// unreferenced chunks but can never persist a dangling reference.
//
// The reference ledger is process-local: a Dedup created in a fresh
// process over an existing store starts tracking from its first save and
// never releases a reference an earlier process took. The FS store pins
// every chunk it finds already on disk, so such chunks stay for good;
// nothing yet reclaims chunks that only dead processes referenced.
//
// Compose Dedup outermost (e.g. Dedup(Gzip(FS))): wrappers that envelope
// the whole artifact would otherwise hide the float payloads from the
// chunker.
type Dedup struct {
	inner Store

	mu          sync.Mutex
	base        map[string][]string              // app -> canonical base chunk keys
	chain       map[string][][]string            // app -> per delta-link chunk keys
	shards      map[shardKey][]string            // rank snapshot chunk keys
	shardChains map[shardKey]map[uint64][]string // per shard-chain link chunk keys
	stats       DedupStats
}

type shardKey struct {
	app  string
	rank int
}

var _ Store = (*Dedup)(nil)

// NewDedup wraps inner with content-addressed deduplication.
func NewDedup(inner Store) *Dedup {
	return &Dedup{
		inner:       inner,
		base:        map[string][]string{},
		chain:       map[string][][]string{},
		shards:      map[shardKey][]string{},
		shardChains: map[shardKey]map[uint64][]string{},
	}
}

// DedupStats describes the cumulative effect of a Dedup wrapper: how many
// payload bytes the saved artifacts carried logically versus how many the
// chunk store actually had to write.
type DedupStats struct {
	// LogicalBytes is the total chunk payload passed through the wrapper.
	LogicalBytes int64
	// PhysicalBytes is the payload actually stored (first copies only).
	PhysicalBytes int64
	// Chunks counts every chunk put; DupChunks the ones already present.
	Chunks, DupChunks int64
}

// Ratio reports logical over physical bytes — 1.0 means no duplication was
// found, higher means the store wrote that factor less data than it was
// handed. A wrapper that has chunked nothing reports 1.0.
func (st DedupStats) Ratio() float64 {
	if st.PhysicalBytes == 0 {
		return 1
	}
	return float64(st.LogicalBytes) / float64(st.PhysicalBytes)
}

// Stats returns a snapshot of the wrapper's cumulative dedup counters.
func (s *Dedup) Stats() DedupStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// chunkable mirrors the differ's grid predicate: only fields big enough to
// span multiple grid chunks are content-addressed; everything else stays
// inline in the envelope.
func chunkable(v serial.Value) bool {
	switch v.Tag {
	case serial.TFloat64s:
		return len(v.Fs) > serial.DeltaChunkElems
	case serial.TFloat64_2:
		if v.Rows*v.Cols <= serial.DeltaChunkElems || v.Cols <= 0 || len(v.F2) != v.Rows {
			return false
		}
		for _, row := range v.F2 {
			if len(row) != v.Cols {
				return false // ragged: keep inline rather than guess a shape
			}
		}
		return true
	}
	return false
}

// gridRows reports how many consecutive matrix rows one chunk covers —
// identical to the StateHash grid, so delta row-chunks and full-field
// row-chunks of the same matrix key identically.
func gridRows(cols int) int {
	n := serial.DeltaChunkElems / cols
	if n < 1 {
		n = 1
	}
	return n
}

// putChunk stores one packed payload and returns its key, accounting it.
func (s *Dedup) putChunk(payload []byte) (string, error) {
	key := serial.ChunkKey(payload)
	dup, err := s.inner.PutChunk(key, payload)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.stats.Chunks++
	s.stats.LogicalBytes += int64(len(payload))
	if dup {
		s.stats.DupChunks++
	} else {
		s.stats.PhysicalBytes += int64(len(payload))
	}
	s.mu.Unlock()
	return key, nil
}

// release drops references, swallowing nothing: the caller decides whether
// a release failure may surface (it never un-persists a saved artifact).
func (s *Dedup) release(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	return s.inner.ReleaseChunks(keys)
}

// dehydrateSnap replaces every chunkable field of snap with a reference
// envelope field, putting the chunks first. It never mutates snap; when
// nothing is chunkable it returns snap itself. The returned keys are every
// reference taken, including on error (so the caller can release them).
func (s *Dedup) dehydrateSnap(snap *serial.Snapshot) (*serial.Snapshot, []string, error) {
	var names []string
	for name, v := range snap.Fields {
		if chunkable(v) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return snap, nil, nil
	}
	sort.Strings(names) // deterministic put order
	env := serial.NewSnapshot(snap.App, snap.Mode, snap.SafePoints)
	for name, v := range snap.Fields {
		env.Fields[name] = v
	}
	var keys []string
	var scratch []byte
	for _, name := range names {
		v := snap.Fields[name]
		var blob []byte
		switch v.Tag {
		case serial.TFloat64s:
			blob = appendRef(nil, "s", "", len(v.Fs))
			for off := 0; off < len(v.Fs); off += serial.DeltaChunkElems {
				end := off + serial.DeltaChunkElems
				if end > len(v.Fs) {
					end = len(v.Fs)
				}
				scratch = serial.PackF64s(scratch[:0], v.Fs[off:end])
				key, err := s.putChunk(scratch)
				if err != nil {
					return nil, keys, err
				}
				keys = append(keys, key)
				blob = appendRef(blob, "", key)
			}
		case serial.TFloat64_2:
			blob = appendRef(nil, "m", "", v.Rows, v.Cols)
			per := gridRows(v.Cols)
			for r := 0; r < v.Rows; r += per {
				end := r + per
				if end > v.Rows {
					end = v.Rows
				}
				scratch = scratch[:0]
				for _, row := range v.F2[r:end] {
					scratch = serial.PackF64s(scratch, row)
				}
				key, err := s.putChunk(scratch)
				if err != nil {
					return nil, keys, err
				}
				keys = append(keys, key)
				blob = appendRef(blob, "", key)
			}
		}
		delete(env.Fields, name)
		env.Fields[casFieldPrefix+name] = serial.Bytes(blob)
	}
	return env, keys, nil
}

// rehydrateSnap resolves an envelope snapshot's chunk references back into
// the real fields; snapshots written without the wrapper pass through.
func (s *Dedup) rehydrateSnap(env *serial.Snapshot) (*serial.Snapshot, error) {
	wrapped := false
	for name := range env.Fields {
		if strings.HasPrefix(name, casFieldPrefix) {
			wrapped = true
			break
		}
	}
	if !wrapped {
		return env, nil
	}
	out := serial.NewSnapshot(env.App, env.Mode, env.SafePoints)
	for name, v := range env.Fields {
		if !strings.HasPrefix(name, casFieldPrefix) {
			out.Fields[name] = v
			continue
		}
		real := strings.TrimPrefix(name, casFieldPrefix)
		rv, err := s.rehydrateField(real, string(v.B))
		if err != nil {
			return nil, err
		}
		out.Fields[real] = rv
	}
	return out, nil
}

// rehydrateField rebuilds one whole field from its reference blob.
func (s *Dedup) rehydrateField(name, blob string) (serial.Value, error) {
	kind, args, lines := cutRefHeader(blob)
	switch kind {
	case "s":
		var n int
		if rest, ok := cutInts(args, &n); !ok || rest != "" || n < 0 {
			return serial.Value{}, fmt.Errorf("ckpt: dedup: bad slice reference for %q", name)
		}
		full := make([]float64, n)
		for i := 0; lines != ""; i++ {
			var key string
			key, lines, _ = strings.Cut(lines, "\n")
			off := i * serial.DeltaChunkElems
			data, err := s.chunkF64s(name, key)
			if err != nil {
				return serial.Value{}, err
			}
			if off+len(data) > n {
				return serial.Value{}, fmt.Errorf("ckpt: dedup: chunk %d of %q overruns the field", i, name)
			}
			copy(full[off:], data)
		}
		return serial.Float64s(full), nil
	case "m":
		var rows, cols int
		if rest, ok := cutInts(args, &rows, &cols); !ok || rest != "" || rows < 0 || cols < 1 {
			return serial.Value{}, fmt.Errorf("ckpt: dedup: bad matrix reference for %q", name)
		}
		m := make([][]float64, rows)
		per := gridRows(cols)
		for i := 0; lines != ""; i++ {
			var key string
			key, lines, _ = strings.Cut(lines, "\n")
			r := i * per
			data, err := s.chunkF64s(name, key)
			if err != nil {
				return serial.Value{}, err
			}
			if len(data)%cols != 0 || r+len(data)/cols > rows {
				return serial.Value{}, fmt.Errorf("ckpt: dedup: row chunk %d of %q does not fit a %dx%d matrix", i, name, rows, cols)
			}
			for j := 0; j < len(data)/cols; j++ {
				m[r+j] = data[j*cols : (j+1)*cols : (j+1)*cols]
			}
		}
		for i, row := range m {
			if row == nil {
				return serial.Value{}, fmt.Errorf("ckpt: dedup: matrix %q is missing row %d", name, i)
			}
		}
		return serial.Float64Matrix(m), nil
	}
	return serial.Value{}, fmt.Errorf("ckpt: dedup: unknown reference kind for field %q", name)
}

func (s *Dedup) chunkF64s(name, key string) ([]float64, error) {
	payload, found, err := s.inner.GetChunk(key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("ckpt: dedup: field %q references missing chunk %s", name, key)
	}
	if serial.ChunkKey(payload) != key {
		return nil, fmt.Errorf("ckpt: dedup: chunk %s is corrupt", key)
	}
	return serial.UnpackF64s(payload)
}

// appendRef appends one line of a reference blob: kind, the decimal
// numbers and key, separated by single spaces (empty kind or key omitted).
func appendRef(b []byte, kind, key string, nums ...int) []byte {
	start := len(b)
	b = append(b, kind...)
	for _, n := range nums {
		if len(b) > start {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	if key != "" {
		if len(b) > start {
			b = append(b, ' ')
		}
		b = append(b, key...)
	}
	return append(b, '\n')
}

// cutRefHeader splits a reference blob into the kind and arguments of its
// header line and the newline-terminated lines that follow.
func cutRefHeader(blob string) (kind, args, lines string) {
	header, lines, _ := strings.Cut(blob, "\n")
	kind, args, _ = strings.Cut(header, " ")
	return kind, args, lines
}

// cutInts parses len(nums) space-separated decimals from the front of s and
// returns what follows the last one's separator.
func cutInts(s string, nums ...*int) (string, bool) {
	for _, p := range nums {
		var tok string
		tok, s, _ = strings.Cut(s, " ")
		n, err := strconv.Atoi(tok)
		if err != nil {
			return "", false
		}
		*p = n
	}
	return s, true
}

// dehydrateDelta replaces a delta's chunkable whole-field replacements and
// its chunked slice/matrix sections with reference fields, putting the
// chunks first. Like dehydrateSnap it never mutates d and passes a delta
// with nothing to chunk through untouched.
func (s *Dedup) dehydrateDelta(d *serial.Delta) (*serial.Delta, []string, error) {
	needs := false
	for _, v := range d.Full {
		if chunkable(v) {
			needs = true
		}
	}
	if len(d.Slices) > 0 || len(d.Matrices) > 0 {
		needs = true
	}
	if !needs {
		return d, nil, nil
	}
	env := serial.NewDelta(d.App, d.Mode, d.SafePoints, d.BaseSP)
	env.Seq = d.Seq
	env.Removed = d.Removed
	var keys []string
	var scratch []byte
	for name, v := range d.Full {
		env.Full[name] = v
	}
	snapPart := serial.NewSnapshot(d.App, d.Mode, d.SafePoints)
	for name, v := range d.Full {
		if chunkable(v) {
			snapPart.Fields[name] = v
		}
	}
	if len(snapPart.Fields) > 0 {
		envPart, partKeys, err := s.dehydrateSnap(snapPart)
		keys = append(keys, partKeys...)
		if err != nil {
			return nil, keys, err
		}
		for name, v := range envPart.Fields {
			if strings.HasPrefix(name, casFieldPrefix) {
				delete(env.Full, strings.TrimPrefix(name, casFieldPrefix))
				env.Full[name] = v
			}
		}
	}
	for _, name := range sortedKeysOf(d.Slices) {
		sd := d.Slices[name]
		blob := appendRef(nil, "S", "", sd.Len)
		for _, c := range sd.Chunks {
			scratch = serial.PackF64s(scratch[:0], c.Data)
			key, err := s.putChunk(scratch)
			if err != nil {
				return nil, keys, err
			}
			keys = append(keys, key)
			blob = appendRef(blob, "", key, c.Off, len(c.Data))
		}
		env.Full[casDeltaPrefix+name] = serial.Bytes(blob)
	}
	for _, name := range sortedKeysOf(d.Matrices) {
		md := d.Matrices[name]
		blob := appendRef(nil, "M", "", md.Rows, md.Cols)
		for _, c := range md.Chunks {
			scratch = scratch[:0]
			for _, row := range c.Rows {
				scratch = serial.PackF64s(scratch, row)
			}
			key, err := s.putChunk(scratch)
			if err != nil {
				return nil, keys, err
			}
			keys = append(keys, key)
			blob = appendRef(blob, "", key, c.Row, len(c.Rows))
		}
		env.Full[casDeltaPrefix+name] = serial.Bytes(blob)
	}
	return env, keys, nil
}

func sortedKeysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// rehydrateDelta resolves an envelope delta back into the real one; deltas
// written without the wrapper pass through.
func (s *Dedup) rehydrateDelta(env *serial.Delta) (*serial.Delta, error) {
	wrapped := false
	for name := range env.Full {
		if strings.HasPrefix(name, casFieldPrefix) || strings.HasPrefix(name, casDeltaPrefix) {
			wrapped = true
			break
		}
	}
	if !wrapped {
		return env, nil
	}
	d := serial.NewDelta(env.App, env.Mode, env.SafePoints, env.BaseSP)
	d.Seq = env.Seq
	d.Removed = env.Removed
	for name, v := range env.Full {
		switch {
		case strings.HasPrefix(name, casFieldPrefix):
			real := strings.TrimPrefix(name, casFieldPrefix)
			rv, err := s.rehydrateField(real, string(v.B))
			if err != nil {
				return nil, err
			}
			d.Full[real] = rv
		case strings.HasPrefix(name, casDeltaPrefix):
			real := strings.TrimPrefix(name, casDeltaPrefix)
			if err := s.rehydrateSection(d, real, string(v.B)); err != nil {
				return nil, err
			}
		default:
			d.Full[name] = v
		}
	}
	return d, nil
}

// rehydrateSection rebuilds one chunked slice or matrix delta section.
func (s *Dedup) rehydrateSection(d *serial.Delta, name, blob string) error {
	kind, args, lines := cutRefHeader(blob)
	switch kind {
	case "S":
		var n int
		if rest, ok := cutInts(args, &n); !ok || rest != "" || n < 0 {
			return fmt.Errorf("ckpt: dedup: bad slice section reference for %q", name)
		}
		sd := serial.SliceDelta{Len: n}
		for lines != "" {
			var line string
			line, lines, _ = strings.Cut(lines, "\n")
			var off, count int
			key, ok := cutInts(line, &off, &count)
			if !ok || key == "" {
				return fmt.Errorf("ckpt: dedup: bad slice chunk reference for %q", name)
			}
			data, err := s.chunkF64s(name, key)
			if err != nil {
				return err
			}
			if len(data) != count || off < 0 || off+count > n {
				return fmt.Errorf("ckpt: dedup: slice chunk [%d,+%d) of %q does not match its payload", off, count, name)
			}
			sd.Chunks = append(sd.Chunks, serial.SliceChunk{Off: off, Data: data})
		}
		d.Slices[name] = sd
	case "M":
		var rows, cols int
		if rest, ok := cutInts(args, &rows, &cols); !ok || rest != "" || rows < 0 || cols < 1 {
			return fmt.Errorf("ckpt: dedup: bad matrix section reference for %q", name)
		}
		md := serial.MatrixDelta{Rows: rows, Cols: cols}
		for lines != "" {
			var line string
			line, lines, _ = strings.Cut(lines, "\n")
			var row, nrows int
			key, ok := cutInts(line, &row, &nrows)
			if !ok || key == "" {
				return fmt.Errorf("ckpt: dedup: bad row chunk reference for %q", name)
			}
			data, err := s.chunkF64s(name, key)
			if err != nil {
				return err
			}
			if nrows < 1 || len(data) != nrows*cols || row < 0 || row+nrows > rows {
				return fmt.Errorf("ckpt: dedup: row chunk [%d,+%d) of %q does not match its payload", row, nrows, name)
			}
			block := make([][]float64, nrows)
			for i := range block {
				block[i] = data[i*cols : (i+1)*cols : (i+1)*cols]
			}
			md.Chunks = append(md.Chunks, serial.MatrixChunk{Row: row, Rows: block})
		}
		d.Matrices[name] = md
	default:
		return fmt.Errorf("ckpt: dedup: unknown section reference kind for %q", name)
	}
	return nil
}

// Save dehydrates and stores the canonical snapshot, then releases the
// references of the base it replaced (put-before-link, clear-before-
// release: a failure leaves at worst leaked chunks, never a dangling
// reference).
func (s *Dedup) Save(snap *serial.Snapshot) error {
	env, keys, err := s.dehydrateSnap(snap)
	if err != nil {
		s.release(keys)
		return err
	}
	if err := s.inner.Save(env); err != nil {
		s.release(keys)
		return err
	}
	s.mu.Lock()
	old := s.base[snap.App]
	s.base[snap.App] = keys
	s.mu.Unlock()
	return s.release(old)
}

// SaveShard dehydrates and stores one rank's snapshot.
func (s *Dedup) SaveShard(snap *serial.Snapshot, rank int) error {
	env, keys, err := s.dehydrateSnap(snap)
	if err != nil {
		s.release(keys)
		return err
	}
	if err := s.inner.SaveShard(env, rank); err != nil {
		s.release(keys)
		return err
	}
	sk := shardKey{app: snap.App, rank: rank}
	s.mu.Lock()
	old := s.shards[sk]
	s.shards[sk] = keys
	s.mu.Unlock()
	return s.release(old)
}

// SaveDelta dehydrates and appends one canonical chain link, recording its
// references for ClearDeltas to release.
func (s *Dedup) SaveDelta(d *serial.Delta) error {
	env, keys, err := s.dehydrateDelta(d)
	if err != nil {
		s.release(keys)
		return err
	}
	if err := s.inner.SaveDelta(env); err != nil {
		s.release(keys)
		return err
	}
	if len(keys) > 0 {
		s.mu.Lock()
		s.chain[d.App] = append(s.chain[d.App], keys)
		s.mu.Unlock()
	}
	return nil
}

// SaveShardDelta dehydrates and appends one shard-chain link, recording its
// references for ClearShardDeltas to release.
func (s *Dedup) SaveShardDelta(d *serial.Delta, rank int) error {
	env, keys, err := s.dehydrateDelta(d)
	if err != nil {
		s.release(keys)
		return err
	}
	if err := s.inner.SaveShardDelta(env, rank); err != nil {
		s.release(keys)
		return err
	}
	sk := shardKey{app: d.App, rank: rank}
	s.mu.Lock()
	m := s.shardChains[sk]
	if m == nil {
		m = map[uint64][]string{}
		s.shardChains[sk] = m
	}
	old := m[d.Seq]
	m[d.Seq] = keys
	s.mu.Unlock()
	return s.release(old)
}

// Load reads and rehydrates the canonical snapshot; a snapshot whose
// chunks cannot be resolved reports found=true with the error, like any
// other corruption.
func (s *Dedup) Load(app string) (*serial.Snapshot, bool, error) {
	env, found, err := s.inner.Load(app)
	if err != nil || !found {
		return nil, found, err
	}
	snap, err := s.rehydrateSnap(env)
	if err != nil {
		return nil, true, err
	}
	return snap, true, nil
}

// LoadChain reads and rehydrates the canonical chain. A link whose chunks
// cannot be resolved truncates the chain there, exactly like a torn write —
// every shorter prefix is still a consistent checkpoint.
func (s *Dedup) LoadChain(app string) (*serial.Snapshot, []*serial.Delta, bool, error) {
	base, envs, found, err := s.inner.LoadChain(app)
	if err != nil || !found {
		return nil, nil, found, err
	}
	snap, err := s.rehydrateSnap(base)
	if err != nil {
		return nil, nil, true, err
	}
	var deltas []*serial.Delta
	for _, env := range envs {
		d, derr := s.rehydrateDelta(env)
		if derr != nil {
			break
		}
		deltas = append(deltas, d)
	}
	return snap, deltas, true, nil
}

// LoadShard reads and rehydrates one rank's snapshot.
func (s *Dedup) LoadShard(app string, rank int) (*serial.Snapshot, bool, error) {
	env, found, err := s.inner.LoadShard(app, rank)
	if err != nil || !found {
		return nil, found, err
	}
	snap, err := s.rehydrateSnap(env)
	if err != nil {
		return nil, true, err
	}
	return snap, true, nil
}

// LoadShardDelta reads and rehydrates one shard-chain link; unresolvable
// chunks report found=true with the error, like a torn link.
func (s *Dedup) LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error) {
	env, found, err := s.inner.LoadShardDelta(app, rank, seq)
	if err != nil || !found {
		return nil, found, err
	}
	d, err := s.rehydrateDelta(env)
	if err != nil {
		return nil, true, err
	}
	return d, true, nil
}

// ClearShardDeltas clears the links first, then releases their chunk
// references (clear-before-release).
func (s *Dedup) ClearShardDeltas(app string, rank int, below uint64) error {
	if err := s.inner.ClearShardDeltas(app, rank, below); err != nil {
		return err
	}
	sk := shardKey{app: app, rank: rank}
	var dead []string
	s.mu.Lock()
	for seq, keys := range s.shardChains[sk] {
		if below == 0 || seq < below {
			dead = append(dead, keys...)
			delete(s.shardChains[sk], seq)
		}
	}
	s.mu.Unlock()
	return s.release(dead)
}

// SaveManifest delegates: the commit record is tiny and must stay
// independently decodable.
func (s *Dedup) SaveManifest(m *serial.Manifest) error { return s.inner.SaveManifest(m) }

// LoadManifest delegates to the inner store.
func (s *Dedup) LoadManifest(app string) (*serial.Manifest, bool, error) {
	return s.inner.LoadManifest(app)
}

// Clear removes app's artifacts, then releases every reference the ledger
// holds for them (clear-before-release).
func (s *Dedup) Clear(app string) error {
	if err := s.inner.Clear(app); err != nil {
		return err
	}
	var dead []string
	s.mu.Lock()
	dead = append(dead, s.base[app]...)
	delete(s.base, app)
	for _, keys := range s.chain[app] {
		dead = append(dead, keys...)
	}
	delete(s.chain, app)
	for sk, keys := range s.shards {
		if sk.app == app {
			dead = append(dead, keys...)
			delete(s.shards, sk)
		}
	}
	for sk, m := range s.shardChains {
		if sk.app == app {
			for _, keys := range m {
				dead = append(dead, keys...)
			}
			delete(s.shardChains, sk)
		}
	}
	s.mu.Unlock()
	return s.release(dead)
}

// ClearDeltas clears the canonical chain first, then releases its chunk
// references (clear-before-release).
func (s *Dedup) ClearDeltas(app string) error {
	if err := s.inner.ClearDeltas(app); err != nil {
		return err
	}
	var dead []string
	s.mu.Lock()
	for _, keys := range s.chain[app] {
		dead = append(dead, keys...)
	}
	delete(s.chain, app)
	s.mu.Unlock()
	return s.release(dead)
}

// LedgerStart delegates to the inner store.
func (s *Dedup) LedgerStart(app string) error { return s.inner.LedgerStart(app) }

// LedgerFinish delegates to the inner store.
func (s *Dedup) LedgerFinish(app string) error { return s.inner.LedgerFinish(app) }

// Crashed delegates to the inner store.
func (s *Dedup) Crashed(app string) (bool, error) { return s.inner.Crashed(app) }

// PutChunk delegates to the inner store (for composed chunk users).
func (s *Dedup) PutChunk(key string, payload []byte) (bool, error) {
	return s.inner.PutChunk(key, payload)
}

// GetChunk delegates to the inner store.
func (s *Dedup) GetChunk(key string) ([]byte, bool, error) { return s.inner.GetChunk(key) }

// ReleaseChunks delegates to the inner store.
func (s *Dedup) ReleaseChunks(keys []string) error { return s.inner.ReleaseChunks(keys) }
