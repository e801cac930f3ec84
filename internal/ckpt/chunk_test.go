package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ppar/internal/serial"
)

// syncsDuring reports how many file and directory syncs fn issued in s's
// directory.
func syncsDuring(t *testing.T, s *FS, fn func() error) int64 {
	t.Helper()
	before := s.cas.syncs.Load()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return s.cas.syncs.Load() - before
}

// The fsync budget of the chunk path: a new chunk costs its own file sync
// and nothing else; the artifact that references new chunks pays one
// extra directory sync before its rename; duplicates and releases cost
// nothing, so an all-duplicate dedup save costs what a plain save does.
func TestFSChunkSyncBudget(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("directory syncs are skipped on windows")
	}
	fsStore, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewDedup(fsStore)

	plain := serial.NewSnapshot("plain", "seq", 1)
	plain.Fields["X"] = serial.Int64(1)
	if n := syncsDuring(t, fsStore, func() error { return fsStore.Save(plain) }); n != 2 {
		t.Fatalf("plain FS save cost %d syncs, want 2", n)
	}

	n := syncsDuring(t, fsStore, func() error { return s.Save(bigState("app", 10, 1)) })
	k := s.Stats().Chunks - s.Stats().DupChunks
	if k == 0 {
		t.Fatal("the first dedup save wrote no chunks")
	}
	if n != k+3 {
		t.Fatalf("dedup save with %d new chunks cost %d syncs, want %d", k, n, k+3)
	}

	// Same content at a later safe point: every chunk is a duplicate, and
	// releasing the replaced base's references is free.
	if n := syncsDuring(t, fsStore, func() error { return s.Save(bigState("app", 20, 1)) }); n != 2 {
		t.Fatalf("all-duplicate dedup save cost %d syncs, want 2", n)
	}
	// Chunks already covered by a directory sync add nothing to a later
	// chunkless save.
	if n := syncsDuring(t, fsStore, func() error { return fsStore.Save(plain) }); n != 2 {
		t.Fatalf("plain FS save after chunk saves cost %d syncs, want 2", n)
	}
	if n := syncsDuring(t, fsStore, func() error { return s.Clear("app") }); n != 0 {
		t.Fatalf("clear and release cost %d syncs, want 0", n)
	}
	if n, _ := chunkFiles(t, fsStore.Dir); n != 0 {
		t.Fatalf("%d chunk files left after the last release", n)
	}
}

// chunkFiles counts the chunk and legacy sidecar files in dir.
func chunkFiles(t *testing.T, dir string) (chunks, refs int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".chunk"):
			chunks++
		case strings.HasSuffix(e.Name(), ".ref"):
			refs++
		}
	}
	return chunks, refs
}

// Every FS over one directory shares one reference table, however the
// directory is spelled: a release through one store cannot drop a chunk
// another still references.
func TestFSChunkTableSharedAcrossStores(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFS(filepath.Join(dir, "sub", ".."))
	if err != nil {
		t.Fatal(err)
	}
	payload := serial.PackF64s(nil, []float64{4, 5, 6})
	key := serial.ChunkKey(payload)
	if dup, err := a.PutChunk(key, payload); err != nil || dup {
		t.Fatalf("put via A: dup=%v err=%v", dup, err)
	}
	if dup, err := b.PutChunk(key, payload); err != nil || !dup {
		t.Fatalf("put via B: dup=%v err=%v", dup, err)
	}
	if err := a.ReleaseChunks([]string{key}); err != nil {
		t.Fatal(err)
	}
	if _, found, err := b.GetChunk(key); err != nil || !found {
		t.Fatalf("chunk still referenced through B was deleted: found=%v err=%v", found, err)
	}
	if err := a.ReleaseChunks([]string{key}); err != nil {
		t.Fatal(err)
	}
	if _, found, err := b.GetChunk(key); err != nil || found {
		t.Fatalf("chunk survived its last release: found=%v err=%v", found, err)
	}
}

// Goroutines putting, committing and releasing through two stores over one
// directory keep the shared counts exact: a chunk survives while any
// goroutine holds a reference, and none is left once all are released.
func TestFSChunkTableConcurrent(t *testing.T) {
	dir := t.TempDir()
	stores := make([]*FS, 2)
	for i := range stores {
		s, err := NewFS(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	var keys []string
	var payloads [][]byte
	for i := 0; i < 4; i++ {
		p := serial.PackF64s(nil, []float64{float64(i), 1, 2})
		keys, payloads = append(keys, serial.ChunkKey(p)), append(payloads, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int, s *FS) {
			defer wg.Done()
			for round := 1; round <= 5; round++ {
				for i, p := range payloads {
					if _, err := s.PutChunk(keys[i], p); err != nil {
						t.Error(err)
						return
					}
				}
				snap := serial.NewSnapshot(fmt.Sprintf("g%d", g), "seq", uint64(round))
				snap.Fields["X"] = serial.Int64(int64(round))
				if err := s.Save(snap); err != nil {
					t.Error(err)
					return
				}
				for _, k := range keys {
					if _, found, err := s.GetChunk(k); err != nil || !found {
						t.Errorf("goroutine %d lost a referenced chunk: found=%v err=%v", g, found, err)
					}
				}
				if err := s.ReleaseChunks(keys); err != nil {
					t.Error(err)
					return
				}
			}
		}(g, stores[g%2])
	}
	wg.Wait()
	if n, _ := chunkFiles(t, dir); n != 0 {
		t.Fatalf("%d chunk files left after every reference was released", n)
	}
}

// A chunk already on disk when this process first puts it (an earlier
// process wrote it, and may still reference it) is pinned: the put reports
// a duplicate and no release here ever deletes it.
func TestFSChunkPinsPreexisting(t *testing.T) {
	dir := t.TempDir()
	payload := serial.PackF64s(nil, []float64{7, 8, 9})
	key := serial.ChunkKey(payload)
	path := filepath.Join(dir, "cas-"+key+".chunk")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dup, err := s.PutChunk(key, payload); err != nil || !dup {
		t.Fatalf("put of a chunk already on disk: dup=%v err=%v", dup, err)
	}
	if err := s.ReleaseChunks([]string{key}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("pinned chunk deleted by its release: %v", err)
	}
	if dup, err := s.PutChunk(key, payload); err != nil || !dup {
		t.Fatalf("re-put after the release: dup=%v err=%v", dup, err)
	}
}

// Reference sidecars (cas-<key>.ref) left by older versions are ignored:
// they neither keep chunks alive nor break Load and Clear.
func TestFSIgnoresLegacyRefFiles(t *testing.T) {
	dir := t.TempDir()
	fsStore, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewDedup(fsStore)
	if err := s.Save(bigState("app", 10, 2)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if key, ok := strings.CutSuffix(e.Name(), ".chunk"); ok {
			if err := os.WriteFile(filepath.Join(dir, key+".ref"), []byte("3\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "cas-0123.ref"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	chunks, refs := chunkFiles(t, dir)
	got, found, err := s.Load("app")
	if err != nil || !found {
		t.Fatalf("load beside legacy sidecars: found=%v err=%v", found, err)
	}
	assertBigState(t, got, 10, 2)
	if err := s.Clear("app"); err != nil {
		t.Fatal(err)
	}
	if _, found, err := s.Load("app"); err != nil || found {
		t.Fatalf("checkpoint survived Clear: found=%v err=%v", found, err)
	}
	if c, r := chunkFiles(t, dir); c != 0 || r != refs {
		t.Fatalf("after Clear: %d of %d chunks and %d of %d sidecars left, want 0 and all", c, chunks, r, refs)
	}
}

// The reference blobs keep their exact text format, so envelopes written
// by any version decode with any other.
func TestDedupRefBlobFormat(t *testing.T) {
	s := NewDedup(NewMem())
	env, keys, err := s.dehydrateSnap(bigState("app", 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Fields are chunked in name order: Mat (three row groups of 81 rows)
	// before Vec (four slice chunks).
	if len(keys) != 7 {
		t.Fatalf("bigState chunked into %d chunks, want 7", len(keys))
	}
	var vec, mat strings.Builder
	fmt.Fprintf(&mat, "m %d %d\n", 200, 100)
	for _, k := range keys[:3] {
		fmt.Fprintf(&mat, "%s\n", k)
	}
	fmt.Fprintf(&vec, "s %d\n", 3*serial.DeltaChunkElems+17)
	for _, k := range keys[3:] {
		fmt.Fprintf(&vec, "%s\n", k)
	}
	if got := string(env.Fields[casFieldPrefix+"Vec"].B); got != vec.String() {
		t.Fatalf("slice reference blob:\n%q\nwant\n%q", got, vec.String())
	}
	if got := string(env.Fields[casFieldPrefix+"Mat"].B); got != mat.String() {
		t.Fatalf("matrix reference blob:\n%q\nwant\n%q", got, mat.String())
	}

	d := serial.NewDelta("app", "seq", 2, 1)
	d.Slices["V"] = serial.SliceDelta{Len: 20000, Chunks: []serial.SliceChunk{{Off: 8192, Data: []float64{1, 2}}}}
	d.Matrices["M"] = serial.MatrixDelta{Rows: 9, Cols: 2, Chunks: []serial.MatrixChunk{{Row: 3, Rows: [][]float64{{1, 2}, {3, 4}}}}}
	denv, dkeys, err := s.dehydrateDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(denv.Full[casDeltaPrefix+"V"].B), fmt.Sprintf("S %d\n%d %d %s\n", 20000, 8192, 2, dkeys[0]); got != want {
		t.Fatalf("slice section blob %q, want %q", got, want)
	}
	if got, want := string(denv.Full[casDeltaPrefix+"M"].B), fmt.Sprintf("M %d %d\n%d %d %s\n", 9, 2, 3, 2, dkeys[1]); got != want {
		t.Fatalf("matrix section blob %q, want %q", got, want)
	}
	back, err := s.rehydrateDelta(denv)
	if err != nil {
		t.Fatal(err)
	}
	if c := back.Slices["V"].Chunks; len(c) != 1 || c[0].Off != 8192 || c[0].Data[1] != 2 {
		t.Fatalf("slice section came back as %+v", back.Slices["V"])
	}
	if c := back.Matrices["M"].Chunks; len(c) != 1 || c[0].Row != 3 || c[0].Rows[1][1] != 4 {
		t.Fatalf("matrix section came back as %+v", back.Matrices["M"])
	}
}

// BenchmarkChunkPut measures the FS chunk path per operation: a put of
// new content (write, file sync, rename), a put of content the table
// already counts, and the release of a chunk's last reference (unlink).
// fsyncs/op counts file and directory syncs.
func BenchmarkChunkPut(b *testing.B) {
	payload := serial.PackF64s(nil, make([]float64, serial.DeltaChunkElems))
	newStore := func(b *testing.B) *FS {
		s, err := NewFS(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	keys := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%064x", i)
		}
		return out
	}
	report := func(b *testing.B, s *FS, before int64) {
		b.ReportMetric(float64(s.cas.syncs.Load()-before)/float64(b.N), "fsyncs/op")
	}
	b.Run("new", func(b *testing.B) {
		s, ks := newStore(b), keys(b.N)
		b.ReportAllocs()
		before := s.cas.syncs.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.PutChunk(ks[i], payload); err != nil {
				b.Fatal(err)
			}
		}
		report(b, s, before)
	})
	b.Run("dup", func(b *testing.B) {
		s := newStore(b)
		key := serial.ChunkKey(payload)
		if _, err := s.PutChunk(key, payload); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		before := s.cas.syncs.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.PutChunk(key, payload); err != nil {
				b.Fatal(err)
			}
		}
		report(b, s, before)
	})
	b.Run("release", func(b *testing.B) {
		s, ks := newStore(b), keys(b.N)
		for _, k := range ks {
			if _, err := s.PutChunk(k, payload); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		before := s.cas.syncs.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.ReleaseChunks(ks[i : i+1]); err != nil {
				b.Fatal(err)
			}
		}
		report(b, s, before)
	})
}
