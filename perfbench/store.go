package main

import (
	"bytes"
	"sync"
	"time"

	"ppar/internal/serial"
	"ppar/pp"
)

// timedStore is a pp.Store that delegates every method to inner and records
// one span per call. The outer wrapper (layer "ckpt") sits where the engine
// or supervisor calls the store; it counts saves and times the serial
// layer's public encode/decode on the snapshots that cross it, outside the
// delegated call's span. The inner wrapper (layer "ckpt.fs") sits between a
// dedup store and its backend and times serial.ChunkKey on every chunk put.
type timedStore struct {
	inner pp.Store
	tr    *tracer
	outer bool
}

var _ pp.Store = (*timedStore)(nil)

func wrapStore(inner pp.Store, tr *tracer, outer bool) *timedStore {
	return &timedStore{inner: inner, tr: tr, outer: outer}
}

func (s *timedStore) layer() string {
	if s.outer {
		return "ckpt"
	}
	return "ckpt.fs"
}

// do runs one delegated call inside a span.
func (s *timedStore) do(name, app string, bytes int64, fn func() error) error {
	if s.outer && name == "save" {
		s.tr.saveCalls.Add(1)
	}
	id := s.tr.begin(s.layer(), name, app)
	err := fn()
	s.tr.end(id, bytes, false, err)
	return err
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// timeEncode times serial encoding of a snapshot the program saved.
func (s *timedStore) timeEncode(snap *serial.Snapshot) {
	if !s.outer || snap == nil {
		return
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	start := time.Now()
	err := snap.Encode(buf)
	d := time.Since(start)
	if err == nil {
		s.tr.recordBytes("serial", "encode", start, d, int64(buf.Len()))
	}
}

// timeDecode times serial decoding of a snapshot the program loaded; it is
// encoded first, untimed, to get the bytes a store would have read.
func (s *timedStore) timeDecode(snap *serial.Snapshot) {
	if !s.outer || snap == nil {
		return
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if snap.Encode(buf) != nil {
		return
	}
	n := int64(buf.Len())
	start := time.Now()
	_, err := serial.Decode(buf)
	d := time.Since(start)
	if err == nil {
		s.tr.recordBytes("serial", "decode", start, d, n)
	}
}

func (s *timedStore) Save(snap *serial.Snapshot) error {
	err := s.do("save", snap.App, int64(snap.DataBytes()), func() error { return s.inner.Save(snap) })
	if err == nil {
		s.timeEncode(snap)
	}
	return err
}

func (s *timedStore) SaveShard(snap *serial.Snapshot, rank int) error {
	return s.do("save", snap.App, int64(snap.DataBytes()), func() error { return s.inner.SaveShard(snap, rank) })
}

func (s *timedStore) SaveDelta(d *serial.Delta) error {
	return s.do("save", d.App, int64(d.DataBytes()), func() error { return s.inner.SaveDelta(d) })
}

func (s *timedStore) SaveShardDelta(d *serial.Delta, rank int) error {
	return s.do("save", d.App, int64(d.DataBytes()), func() error { return s.inner.SaveShardDelta(d, rank) })
}

func (s *timedStore) SaveManifest(m *serial.Manifest) error {
	return s.do("save", m.App, 0, func() error { return s.inner.SaveManifest(m) })
}

func (s *timedStore) Load(app string) (snap *serial.Snapshot, found bool, err error) {
	err = s.do("load", app, 0, func() (e error) { snap, found, e = s.inner.Load(app); return e })
	if err == nil && found {
		s.timeDecode(snap)
	}
	return snap, found, err
}

func (s *timedStore) LoadChain(app string) (base *serial.Snapshot, deltas []*serial.Delta, found bool, err error) {
	err = s.do("load", app, 0, func() (e error) { base, deltas, found, e = s.inner.LoadChain(app); return e })
	if err == nil && found {
		s.timeDecode(base)
	}
	return base, deltas, found, err
}

func (s *timedStore) LoadShard(app string, rank int) (snap *serial.Snapshot, found bool, err error) {
	err = s.do("load", app, 0, func() (e error) { snap, found, e = s.inner.LoadShard(app, rank); return e })
	return snap, found, err
}

func (s *timedStore) LoadShardDelta(app string, rank int, seq uint64) (d *serial.Delta, found bool, err error) {
	err = s.do("load", app, 0, func() (e error) { d, found, e = s.inner.LoadShardDelta(app, rank, seq); return e })
	return d, found, err
}

func (s *timedStore) LoadManifest(app string) (m *serial.Manifest, found bool, err error) {
	err = s.do("load", app, 0, func() (e error) { m, found, e = s.inner.LoadManifest(app); return e })
	return m, found, err
}

func (s *timedStore) Clear(app string) error {
	return s.do("clear", app, 0, func() error { return s.inner.Clear(app) })
}

func (s *timedStore) ClearDeltas(app string) error {
	return s.do("clear", app, 0, func() error { return s.inner.ClearDeltas(app) })
}

func (s *timedStore) ClearShardDeltas(app string, rank int, below uint64) error {
	return s.do("clear", app, 0, func() error { return s.inner.ClearShardDeltas(app, rank, below) })
}

func (s *timedStore) PutChunk(key string, payload []byte) (dup bool, err error) {
	if !s.outer {
		start := time.Now()
		serial.ChunkKey(payload)
		s.tr.recordBytes("serial", "chunk_key", start, time.Since(start), int64(len(payload)))
	}
	id := s.tr.begin(s.layer(), "chunk.put", "")
	dup, err = s.inner.PutChunk(key, payload)
	s.tr.end(id, int64(len(payload)), dup, err)
	return dup, err
}

func (s *timedStore) GetChunk(key string) (payload []byte, found bool, err error) {
	err = s.do("chunk.get", "", 0, func() (e error) { payload, found, e = s.inner.GetChunk(key); return e })
	return payload, found, err
}

func (s *timedStore) ReleaseChunks(keys []string) error {
	return s.do("chunk.release", "", 0, func() error { return s.inner.ReleaseChunks(keys) })
}

func (s *timedStore) LedgerStart(app string) error {
	return s.do("ledger", app, 0, func() error { return s.inner.LedgerStart(app) })
}

func (s *timedStore) LedgerFinish(app string) error {
	return s.do("ledger", app, 0, func() error { return s.inner.LedgerFinish(app) })
}

func (s *timedStore) Crashed(app string) (crashed bool, err error) {
	err = s.do("ledger", app, 0, func() (e error) { crashed, e = s.inner.Crashed(app); return e })
	return crashed, err
}
