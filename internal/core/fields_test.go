package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"ppar/internal/mp"
	"ppar/internal/partition"
	"ppar/internal/serial"
	"ppar/internal/team"
)

type fieldApp struct {
	Scalar  float64
	Count   int
	Big     int64
	Vec     []float64
	Ints    []int
	Grid    [][]float64
	private int
}

func (a *fieldApp) Main(*Ctx) {}

func specsOf(m *Module) map[string]*FieldSpec { return mergeModules([]*Module{m}).fields }

func newFieldApp() *fieldApp {
	return &fieldApp{
		Scalar: 1.5, Count: 7, Big: 1 << 40,
		Vec:  []float64{1, 2, 3, 4, 5, 6},
		Ints: []int{10, 20, 30, 40},
		Grid: [][]float64{{1, 2}, {3, 4}, {5, 6}},
	}
}

func TestBindAndRoundTripAllKinds(t *testing.T) {
	m := NewModule("t").SafeData("Scalar", "Count", "Big", "Vec", "Ints", "Grid")
	app := newFieldApp()
	b, err := bindFields(app, specsOf(m))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := b.snapshot("t", "seq", 9)
	if err != nil {
		t.Fatal(err)
	}
	if snap.DataBytes() == 0 {
		t.Fatal("empty snapshot")
	}
	// A live snapshot aliases the application arrays (it is always encoded
	// immediately in real flows); round-trip through the wire form before
	// mutating, exactly as the engine does.
	frozen, err := decodeSnapshot(encodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	app.Scalar, app.Count, app.Big = 0, 0, 0
	app.Vec[0], app.Ints[0], app.Grid[0][0] = -1, -1, -1
	if err := b.restore(frozen); err != nil {
		t.Fatal(err)
	}
	want := newFieldApp()
	if app.Scalar != want.Scalar || app.Count != want.Count || app.Big != want.Big {
		t.Errorf("scalars not restored: %+v", app)
	}
	if !reflect.DeepEqual(app.Vec, want.Vec) || !reflect.DeepEqual(app.Ints, want.Ints) ||
		!reflect.DeepEqual(app.Grid, want.Grid) {
		t.Errorf("slices not restored: %+v", app)
	}
}

func TestRestoreWritesIntoExistingBackingArrays(t *testing.T) {
	m := NewModule("t").SafeData("Grid")
	app := newFieldApp()
	alias := app.Grid[1] // another reference to row 1
	b, err := bindFields(app, specsOf(m))
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := b.snapshot("t", "seq", 0)
	// Deep-copy the snapshot payload so mutation below does not alias it.
	cp := serial.Float64Matrix([][]float64{
		append([]float64(nil), snap.Fields["Grid"].F2[0]...),
		append([]float64(nil), snap.Fields["Grid"].F2[1]...),
		append([]float64(nil), snap.Fields["Grid"].F2[2]...),
	})
	snap.Fields["Grid"] = cp
	app.Grid[1][0] = 99
	if err := b.restore(snap); err != nil {
		t.Fatal(err)
	}
	if alias[0] != 3 {
		t.Errorf("restore did not write through existing backing array: alias[0]=%v", alias[0])
	}
}

func TestBindErrors(t *testing.T) {
	app := newFieldApp()
	if _, err := bindFields(app, specsOf(NewModule("t").SafeData("Nope"))); err == nil {
		t.Error("missing field accepted")
	}
	if _, err := bindFields(app, specsOf(NewModule("t").SafeData("private"))); err == nil {
		t.Error("unexported field accepted")
	}
	sa := &strAppT{S: "x"}
	if _, err := bindFields(sa, specsOf(NewModule("t").SafeData("S"))); err == nil {
		t.Error("string field accepted")
	}
	_ = app.private
}

type strAppT struct{ S string }

func (a *strAppT) Main(*Ctx) {}

func TestLayoutForMatrixAndSlice(t *testing.T) {
	m := NewModule("t").
		PartitionedField("Grid", partition.Block).
		PartitionedField("Vec", partition.Cyclic)
	b, err := bindFields(newFieldApp(), specsOf(m))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := b.layoutFor("Grid", 2)
	if err != nil {
		t.Fatal(err)
	}
	if lg.N != 3 || lg.Kind != partition.Block {
		t.Errorf("grid layout %+v", lg)
	}
	lv, err := b.layoutFor("Vec", 3)
	if err != nil {
		t.Fatal(err)
	}
	if lv.N != 6 || lv.Kind != partition.Cyclic {
		t.Errorf("vec layout %+v", lv)
	}
	if _, err := b.layoutFor("Scalar", 2); err == nil {
		t.Error("scalar field accepted as partitionable")
	}
}

// Property: pack/unpack of owned blocks is the identity for every layout
// kind and rank count.
func TestQuickPackUnpackOwned(t *testing.T) {
	f := func(vals []float64, parts uint8, kindSel uint8) bool {
		p := int(parts%6) + 1
		kind := partition.Kind(kindSel % 3)
		app := &fieldApp{Vec: append([]float64(nil), vals...)}
		mod := NewModule("q")
		if kind == partition.BlockCyclic {
			mod.PartitionedBlockCyclic("Vec", 2)
		} else {
			mod.PartitionedField("Vec", kind)
		}
		b, err := bindFields(app, specsOf(mod))
		if err != nil {
			return false
		}
		l, err := b.layoutFor("Vec", p)
		if err != nil {
			return false
		}
		// Zero the array, then unpack every rank's packed block back.
		blocks := make([][]float64, p)
		for r := 0; r < p; r++ {
			blocks[r], err = b.packOwned("Vec", l, r)
			if err != nil {
				return false
			}
		}
		for i := range app.Vec {
			app.Vec[i] = -12345
		}
		for r := 0; r < p; r++ {
			if err := b.unpackOwned("Vec", l, r, blocks[r]); err != nil {
				return false
			}
		}
		return reflect.DeepEqual(app.Vec, vals) || len(vals) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// gather/scatter over a real communicator must reassemble the master's view
// and redistribute it unchanged.
func TestGatherScatterOverComm(t *testing.T) {
	const n, parts = 10, 3
	tr := mp.NewInProc(parts, nil)
	defer tr.Close()
	world := mp.NewWorld(tr, parts)
	mod := NewModule("t").PartitionedField("Vec", partition.Block)
	master := make(chan []float64, 1)
	err := world.Run(func(c *mp.Comm) error {
		app := &fieldApp{Vec: make([]float64, n)}
		b, err := bindFields(app, specsOf(mod))
		if err != nil {
			return err
		}
		l, _ := b.layoutFor("Vec", parts)
		// Each rank fills only its owned block with rank-tagged values.
		l.Indices(c.Rank(), func(i int) { app.Vec[i] = float64(100*c.Rank() + i) })
		if err := b.gatherAt("Vec", c, 0, parts); err != nil {
			return err
		}
		if c.Rank() == 0 {
			master <- append([]float64(nil), app.Vec...)
		}
		// Master overwrites, then scatters the new view.
		if c.Rank() == 0 {
			for i := range app.Vec {
				app.Vec[i] = float64(-i)
			}
		}
		if err := b.scatterFrom("Vec", c, 0, parts); err != nil {
			return err
		}
		ok := true
		l.Indices(c.Rank(), func(i int) {
			if app.Vec[i] != float64(-i) {
				ok = false
			}
		})
		if !ok {
			t.Errorf("rank %d: scatter did not deliver the master view", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := <-master
	l := partition.New(partition.Block, n, parts)
	for i := 0; i < n; i++ {
		want := float64(100*l.Owner(i) + i)
		if got[i] != want {
			t.Errorf("gathered[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// The single-pass wire codecs (owned blocks for gather/scatter, spans for
// the rebalancer) must produce exactly the bytes of the pack-then-encode
// path — the wire format is unchanged — for every field kind and layout,
// and the decoder must invert them.
func TestPackOwnedWireMatchesEncodedPack(t *testing.T) {
	const n, cols = 11, 3
	fill := func(app *fieldApp, seed float64) {
		app.Vec = make([]float64, n)
		app.Ints = make([]int, n)
		app.Grid = make([][]float64, n)
		for i := 0; i < n; i++ {
			app.Vec[i] = seed + float64(i)/3
			app.Ints[i] = int(seed) - 5*i
			app.Grid[i] = make([]float64, cols)
			for j := range app.Grid[i] {
				app.Grid[i][j] = seed*float64(i) - float64(j)/7
			}
		}
	}
	pick := func(app *fieldApp, field string) any {
		return map[string]any{"Vec": app.Vec, "Ints": app.Ints, "Grid": app.Grid}[field]
	}
	layouts := []struct {
		name string
		mod  func(field string) *Module
		// skewed installs explicit Block cut points, as the rebalancer does.
		skewed bool
	}{
		{"block", func(f string) *Module { return NewModule("w").PartitionedField(f, partition.Block) }, false},
		{"block-rebalanced", func(f string) *Module { return NewModule("w").PartitionedField(f, partition.Block) }, true},
		{"cyclic", func(f string) *Module { return NewModule("w").PartitionedField(f, partition.Cyclic) }, false},
		{"block-cyclic", func(f string) *Module { return NewModule("w").PartitionedBlockCyclic(f, 2) }, false},
	}
	for _, field := range []string{"Vec", "Ints", "Grid"} {
		for _, lay := range layouts {
			for parts := 1; parts <= 4; parts++ {
				src, dst := &fieldApp{}, &fieldApp{}
				fill(src, 2.5)
				fill(dst, -99)
				bs, err := bindFields(src, specsOf(lay.mod(field)))
				if err != nil {
					t.Fatal(err)
				}
				bd, err := bindFields(dst, specsOf(lay.mod(field)))
				if err != nil {
					t.Fatal(err)
				}
				if lay.skewed {
					// Quadratic cut points: uneven, and part 0 is empty
					// from four parts on.
					bounds := make([]int, parts+1)
					for p := range bounds {
						bounds[p] = n * p * p / (parts * parts)
					}
					bs.setBounds(field, bounds)
					bd.setBounds(field, bounds)
				}
				l, err := bs.layoutFor(field, parts)
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < parts; p++ {
					vec, err := bs.packOwned(field, l, p)
					if err != nil {
						t.Fatal(err)
					}
					frame, err := bs.packOwnedWire(field, l, p)
					if err != nil {
						t.Fatal(err)
					}
					if want := mp.EncodeF64s(vec); !reflect.DeepEqual(frame, want) {
						t.Fatalf("%s/%s/%d parts, part %d: wire frame differs from EncodeF64s(packOwned)", field, lay.name, parts, p)
					}
					if l.Kind == partition.Block {
						// A Block part is one span: the rebalancer's span
						// codec must agree with the owned-block codec.
						lo, hi := l.Range(p)
						span, err := bs.packSpanWire(field, lo, hi)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(span, frame) {
							t.Fatalf("%s/%s/%d parts, part %d: span frame differs from owned-block frame", field, lay.name, parts, p)
						}
					}
					if err := bd.unpackOwnedWire(field, l, p, frame); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(pick(src, field), pick(dst, field)) {
					t.Fatalf("%s/%s/%d parts: unpacking every part's frame did not reassemble the field", field, lay.name, parts)
				}
				if parts > 1 {
					if err := bd.unpackOwnedWire(field, l, parts-1, make([]byte, 8)); err == nil {
						t.Fatalf("%s/%s/%d parts: short frame accepted", field, lay.name, parts)
					}
				}
			}
		}
	}
}

// BenchmarkGatherScatter moves one 4 MiB block per rank of a two-rank
// block-partitioned matrix to the master and back — the data movement of
// every canonical checkpoint, restore and migration in distributed modes.
func BenchmarkGatherScatter(b *testing.B) {
	const parts, rows, cols = 2, 1024, 1024 // 8 MiB field, 4 MiB per rank
	for _, tcp := range []bool{false, true} {
		name := "inproc"
		if tcp {
			name = "tcp"
		}
		b.Run(name, func(b *testing.B) {
			var tr mp.Transport = mp.NewInProc(parts, nil)
			if tcp {
				tt, err := mp.NewTCP(parts, nil)
				if err != nil {
					b.Fatal(err)
				}
				tr = tt
			}
			defer tr.Close()
			mod := NewModule("bench").PartitionedField("Grid", partition.Block)
			fields := make([]*boundFields, parts)
			for r := range fields {
				app := &fieldApp{Grid: make([][]float64, rows)}
				for i := range app.Grid {
					app.Grid[i] = make([]float64, cols)
				}
				bf, err := bindFields(app, specsOf(mod))
				if err != nil {
					b.Fatal(err)
				}
				fields[r] = bf
			}
			b.ReportAllocs()
			b.SetBytes(2 * 8 * rows * cols / parts) // one block each way
			b.ResetTimer()
			err := mp.NewWorld(tr, parts).Run(func(c *mp.Comm) error {
				bf := fields[c.Rank()]
				for i := 0; i < b.N; i++ {
					if err := bf.gatherAt("Grid", c, 0, parts); err != nil {
						return err
					}
					if err := bf.scatterFrom("Grid", c, 0, parts); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func TestHaloExchangeUpdatesBoundaryRows(t *testing.T) {
	const rows, cols, parts = 6, 4, 2
	tr := mp.NewInProc(parts, nil)
	defer tr.Close()
	world := mp.NewWorld(tr, parts)
	mod := NewModule("t").PartitionedField("Grid", partition.Block)
	err := world.Run(func(c *mp.Comm) error {
		app := &fieldApp{Grid: make([][]float64, rows)}
		for i := range app.Grid {
			app.Grid[i] = make([]float64, cols)
		}
		b, err := bindFields(app, specsOf(mod))
		if err != nil {
			return err
		}
		l, _ := b.layoutFor("Grid", parts)
		lo, hi := l.Range(c.Rank())
		for i := lo; i < hi; i++ {
			for j := range app.Grid[i] {
				app.Grid[i][j] = float64(10*i + j)
			}
		}
		if err := b.haloExchange("Grid", c, parts); err != nil {
			return err
		}
		// Rank 0 owns rows [0,3): it must now hold row 3 from rank 1.
		// Rank 1 owns rows [3,6): it must now hold row 2 from rank 0.
		var ghost int
		if c.Rank() == 0 {
			ghost = hi
		} else {
			ghost = lo - 1
		}
		for j := 0; j < cols; j++ {
			if app.Grid[ghost][j] != float64(10*ghost+j) {
				t.Errorf("rank %d ghost row %d col %d = %v", c.Rank(), ghost, j, app.Grid[ghost][j])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShardSnapshotRoundTrip(t *testing.T) {
	const parts = 2
	mod := NewModule("t").
		PartitionedField("Vec", partition.Block).
		SafeData("Vec", "Scalar")
	app := newFieldApp()
	b, err := bindFields(app, specsOf(mod))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := b.shardSnapshot("t", 5, 1, parts)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1's shard of Vec (block over 6, part 1 = indices 3..5).
	if got := snap.Fields["Vec"].Fs; !reflect.DeepEqual(got, []float64{4, 5, 6}) {
		t.Fatalf("shard payload %v", got)
	}
	// Wipe and restore the shard.
	app.Vec[3], app.Vec[4], app.Vec[5] = 0, 0, 0
	app.Scalar = 0
	if err := b.restoreShard(snap, 1, parts); err != nil {
		t.Fatal(err)
	}
	if app.Vec[3] != 4 || app.Vec[5] != 6 || app.Scalar != 1.5 {
		t.Fatalf("shard restore failed: %+v", app)
	}
	// The unowned block stays untouched.
	if app.Vec[0] != 1 {
		t.Fatal("restoreShard touched an unowned index")
	}
}

func TestModuleMerging(t *testing.T) {
	a := NewModule("a").ParallelMethod("run").SafeData("Vec").
		PartitionedField("Vec", partition.Block)
	b := NewModule("b").Ignorable("run").ScatterBefore("run", "Vec").
		LoopSchedule("l", team.Dynamic, 8)
	tbl := mergeModules([]*Module{a, b, nil})
	adv := tbl.methods["run"]
	if !adv.Parallel || !adv.Ignorable || len(adv.ScatterBefore) != 1 {
		t.Errorf("merged advice %+v", adv)
	}
	spec := tbl.fields["Vec"]
	if spec.Class != Partitioned || !spec.SafeData {
		t.Errorf("merged field %+v", spec)
	}
	if tbl.loops["l"].Chunk != 8 {
		t.Errorf("merged loop %+v", tbl.loops["l"])
	}
}

func TestFieldClassString(t *testing.T) {
	for c, want := range map[FieldClass]string{Local: "local", Replicated: "replicated", Partitioned: "partitioned"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Sequential: "seq", Shared: "smp", Distributed: "dist", Hybrid: "hybrid"} {
		if m.String() != want {
			t.Errorf("Mode.String() = %q, want %q", m.String(), want)
		}
	}
}
