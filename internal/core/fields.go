package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ppar/internal/ckpt"
	"ppar/internal/mp"
	"ppar/internal/partition"
	"ppar/internal/serial"
)

// boundFields resolves the field names used by modules against one
// application instance. Reflection runs exactly once per (application type,
// field set) shape: the resolved field offsets and kinds are cached in a
// package registry, and binding an instance compiles each field into a
// typed-pointer accessor. Data-movement points (scatter/gather/halo/
// checkpoint) then read and write through the accessors without touching
// reflection at all — in a fleet of identical runs, only the very first
// bind pays the reflective walk.
//
// Supported field kinds: float64, int, int64, []float64, []int,
// [][]float64 (rectangular).
type boundFields struct {
	app   App
	specs map[string]*FieldSpec
	acc   map[string]*fieldAccessor

	// bounds holds per-field explicit Block cut points installed by the
	// Task-mode rebalancer (nil entries mean the even division). All data
	// movement goes through layoutFor, so gather/scatter/halo/shard paths
	// observe moved boundaries automatically. Written only at safe points,
	// between the collective barriers of the rebalance protocol.
	bounds map[string][]int
	// rebalances counts the cross-rank rebalances applied on this rank; all
	// ranks increment it in lockstep (the decision is computed from
	// allgathered data), which is what lets RunStats expose it.
	rebalances atomic.Int64
}

// fieldKind discriminates the compiled accessors; the per-call type-switch
// on an interface value is replaced by this small integer dispatch.
type fieldKind uint8

const (
	kindFloat64 fieldKind = iota
	kindInt
	kindInt64
	kindFloat64s
	kindInts
	kindMatrix
)

// fieldAccessor is one field's compiled access path: a typed pointer into
// the application struct, extracted once at bind time. Exactly one pointer
// is set, per kind. []int fields additionally keep a reusable []int64
// conversion buffer so repeated captures of the same field allocate nothing
// once the buffer has grown to size.
type fieldAccessor struct {
	kind fieldKind
	f64  *float64
	i    *int
	i64  *int64
	fs   *[]float64
	is   *[]int
	f2   *[][]float64

	i64buf []int64 // kindInts: reused by value(); aliased by the returned Value
}

// value extracts the field as a serial.Value sharing the live backing
// arrays (for kindInts, sharing the accessor's conversion buffer, which is
// overwritten by the next value() call — the same "persist before the next
// capture" contract the other aliasing kinds already carry).
func (a *fieldAccessor) value() serial.Value {
	switch a.kind {
	case kindFloat64:
		return serial.Float64(*a.f64)
	case kindInt:
		return serial.Int64(int64(*a.i))
	case kindInt64:
		return serial.Int64(*a.i64)
	case kindFloat64s:
		return serial.Float64s(*a.fs)
	case kindInts:
		v := *a.is
		if cap(a.i64buf) < len(v) {
			a.i64buf = make([]int64, len(v))
		}
		buf := a.i64buf[:len(v)]
		for i, x := range v {
			buf[i] = int64(x)
		}
		return serial.Int64s(buf)
	default:
		return serial.Float64Matrix(*a.f2)
	}
}

// setValue writes a serial.Value back into the field. Slice and matrix
// contents are copied into the existing backing arrays when shapes match,
// so that other references to the same arrays (e.g. the red/black views of
// a stencil) observe the restored data.
func (a *fieldAccessor) setValue(v serial.Value) {
	switch a.kind {
	case kindFloat64:
		*a.f64 = v.F
	case kindInt:
		*a.i = int(v.I)
	case kindInt64:
		*a.i64 = v.I
	case kindFloat64s:
		if cur := *a.fs; len(cur) == len(v.Fs) {
			copy(cur, v.Fs)
		} else {
			*a.fs = append([]float64(nil), v.Fs...)
		}
	case kindInts:
		if cur := *a.is; len(cur) == len(v.Is) {
			for i, x := range v.Is {
				cur[i] = int(x)
			}
		} else {
			is := make([]int, len(v.Is))
			for i, x := range v.Is {
				is[i] = int(x)
			}
			*a.is = is
		}
	default:
		cur := *a.f2
		if len(cur) == v.Rows && (v.Rows == 0 || len(cur[0]) == v.Cols) {
			for i := range cur {
				copy(cur[i], v.F2[i])
			}
		} else {
			m := make([][]float64, v.Rows)
			for i := range m {
				m[i] = append([]float64(nil), v.F2[i]...)
			}
			*a.f2 = m
		}
	}
}

// shapeField is one entry of a compiled shape: where the field lives in the
// struct and what kind it is.
type shapeField struct {
	index int
	kind  fieldKind
}

// shapeKey identifies a compiled shape: the concrete application struct
// type plus the signature of the bound field set. Two modules binding
// different field subsets of the same struct compile separately.
type shapeKey struct {
	typ reflect.Type
	sig string
}

// shapeRegistry caches compiled shapes process-wide. Values are
// map[string]shapeField, immutable once stored.
var shapeRegistry sync.Map

// specSignature is the field-set half of a shape key: the sorted bound
// names. Kinds are a property of the struct type, so names suffice.
func specSignature(specs map[string]*FieldSpec) string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "\x00")
}

// compileShape resolves every bound field against the struct type by
// reflection — the only reflective walk in the package, performed once per
// shape and cached.
func compileShape(st reflect.Type, specs map[string]*FieldSpec) (map[string]shapeField, error) {
	shape := make(map[string]shapeField, len(specs))
	for name := range specs {
		sf, ok := st.FieldByName(name)
		if !ok {
			return nil, fmt.Errorf("core: field %q named by a module does not exist on *%s", name, st)
		}
		if sf.PkgPath != "" {
			return nil, fmt.Errorf("core: field %q on *%s is unexported; module-managed fields must be exported", name, st)
		}
		if len(sf.Index) != 1 {
			return nil, fmt.Errorf("core: field %q on *%s is promoted from an embedded struct; module-managed fields must be declared directly", name, st)
		}
		kind, err := fieldKindOf(sf.Type)
		if err != nil {
			return nil, fmt.Errorf("core: field %q: %w", name, err)
		}
		shape[name] = shapeField{index: sf.Index[0], kind: kind}
	}
	return shape, nil
}

var (
	typFloat64  = reflect.TypeOf(float64(0))
	typInt      = reflect.TypeOf(int(0))
	typInt64    = reflect.TypeOf(int64(0))
	typFloat64s = reflect.TypeOf([]float64(nil))
	typInts     = reflect.TypeOf([]int(nil))
	typMatrix   = reflect.TypeOf([][]float64(nil))
)

func fieldKindOf(t reflect.Type) (fieldKind, error) {
	switch t {
	case typFloat64:
		return kindFloat64, nil
	case typInt:
		return kindInt, nil
	case typInt64:
		return kindInt64, nil
	case typFloat64s:
		return kindFloat64s, nil
	case typInts:
		return kindInts, nil
	case typMatrix:
		return kindMatrix, nil
	}
	return 0, fmt.Errorf("unsupported kind %s (supported: float64, int, int64, []float64, []int, [][]float64)", t)
}

func bindFields(app App, specs map[string]*FieldSpec) (*boundFields, error) {
	b := &boundFields{app: app, specs: specs, acc: map[string]*fieldAccessor{}}
	rv := reflect.ValueOf(app)
	if rv.Kind() != reflect.Pointer || rv.Elem().Kind() != reflect.Struct {
		if len(specs) == 0 {
			return b, nil
		}
		return nil, fmt.Errorf("core: application must be a pointer to struct to use field templates, got %T", app)
	}
	sv := rv.Elem()
	key := shapeKey{typ: sv.Type(), sig: specSignature(specs)}
	cached, ok := shapeRegistry.Load(key)
	if !ok {
		shape, err := compileShape(sv.Type(), specs)
		if err != nil {
			return nil, err
		}
		cached, _ = shapeRegistry.LoadOrStore(key, shape)
	}
	for name, sf := range cached.(map[string]shapeField) {
		a := &fieldAccessor{kind: sf.kind}
		p := sv.Field(sf.index).Addr().Interface()
		switch sf.kind {
		case kindFloat64:
			a.f64 = p.(*float64)
		case kindInt:
			a.i = p.(*int)
		case kindInt64:
			a.i64 = p.(*int64)
		case kindFloat64s:
			a.fs = p.(*[]float64)
		case kindInts:
			a.is = p.(*[]int)
		default:
			a.f2 = p.(*[][]float64)
		}
		b.acc[name] = a
	}
	return b, nil
}

// names returns the sorted field names matching pred — iteration order must
// be deterministic because distributed ranks perform the same collective
// sequence field by field.
func (b *boundFields) names(pred func(*FieldSpec) bool) []string {
	var out []string
	for n, s := range b.specs {
		if pred(s) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func (b *boundFields) safeDataNames() []string {
	return b.names(func(s *FieldSpec) bool { return s.SafeData })
}

func (b *boundFields) partitionedNames() []string {
	return b.names(func(s *FieldSpec) bool { return s.Class == Partitioned })
}

func (b *boundFields) replicatedNames() []string {
	return b.names(func(s *FieldSpec) bool { return s.Class == Replicated })
}

// value extracts a field as a serial.Value (sharing backing arrays).
func (b *boundFields) value(name string) (serial.Value, error) {
	a, ok := b.acc[name]
	if !ok {
		return serial.Value{}, fmt.Errorf("core: field %q not bound", name)
	}
	return a.value(), nil
}

// setValue writes a serial.Value back into the field.
func (b *boundFields) setValue(name string, v serial.Value) error {
	a, ok := b.acc[name]
	if !ok {
		return fmt.Errorf("core: field %q not bound", name)
	}
	a.setValue(v)
	return nil
}

// layoutFor builds the partition layout of a partitioned field for the
// given number of parts. Matrices partition by rows, slices by elements.
func (b *boundFields) layoutFor(name string, parts int) (partition.Layout, error) {
	spec, ok := b.specs[name]
	if !ok || spec.Class != Partitioned {
		return partition.Layout{}, fmt.Errorf("core: field %q is not partitioned", name)
	}
	n, err := b.length(name)
	if err != nil {
		return partition.Layout{}, err
	}
	if spec.Layout == partition.BlockCyclic {
		return partition.NewBlockCyclic(n, parts, spec.ChunkSize), nil
	}
	l := partition.New(spec.Layout, n, parts)
	if bs := b.bounds[name]; spec.Layout == partition.Block && len(bs) == parts+1 {
		l = l.WithBounds(bs)
	}
	return l, nil
}

// setBounds installs (or, with nil, clears) the explicit Block cut points of
// a partitioned field. The rebalance protocol calls it on every rank with
// identical values, after the data movement that makes them true.
func (b *boundFields) setBounds(name string, bounds []int) {
	if b.bounds == nil {
		b.bounds = map[string][]int{}
	}
	b.bounds[name] = bounds
}

// length reports the partitionable extent of a field.
func (b *boundFields) length(name string) (int, error) {
	a, ok := b.acc[name]
	if !ok {
		return 0, fmt.Errorf("core: field %q not bound", name)
	}
	switch a.kind {
	case kindFloat64s:
		return len(*a.fs), nil
	case kindInts:
		return len(*a.is), nil
	case kindMatrix:
		return len(*a.f2), nil
	}
	return 0, fmt.Errorf("core: field %q is scalar and cannot be partitioned", name)
}

// flatAccessor returns the accessor of a partitionable field: one whose
// indices flatten to float64 values (matrices row-major).
func (b *boundFields) flatAccessor(name string) (*fieldAccessor, error) {
	a := b.acc[name]
	if a == nil {
		return nil, fmt.Errorf("core: field %q not bound", name)
	}
	switch a.kind {
	case kindFloat64s, kindInts, kindMatrix:
		return a, nil
	}
	return nil, fmt.Errorf("core: field %q is scalar and cannot be packed", name)
}

// width is how many float64 values one index of a partitionable field
// flattens to: the row length of a (rectangular) matrix, else 1.
func (a *fieldAccessor) width() int {
	if a.kind != kindMatrix {
		return 1
	}
	if m := *a.f2; len(m) > 0 {
		return len(m[0])
	}
	return 0
}

// appendRange appends the flattened values of indices [lo, hi) to out.
func (a *fieldAccessor) appendRange(out []float64, lo, hi int) []float64 {
	switch a.kind {
	case kindFloat64s:
		out = append(out, (*a.fs)[lo:hi]...)
	case kindInts:
		for _, x := range (*a.is)[lo:hi] {
			out = append(out, float64(x))
		}
	case kindMatrix:
		for _, row := range (*a.f2)[lo:hi] {
			out = append(out, row...)
		}
	}
	return out
}

// storeRange writes flattened values from the front of data into indices
// [lo, hi) and returns the unconsumed rest of data.
func (a *fieldAccessor) storeRange(data []float64, lo, hi int) []float64 {
	switch a.kind {
	case kindFloat64s:
		data = data[copy((*a.fs)[lo:hi], data):]
	case kindInts:
		v := (*a.is)[lo:hi]
		for i, x := range data[:len(v)] {
			v[i] = int(x)
		}
		data = data[len(v):]
	case kindMatrix:
		for _, row := range (*a.f2)[lo:hi] {
			data = data[copy(row, data):]
		}
	}
	return data
}

// encodeRange writes the flattened values of indices [lo, hi) into out at
// byte offset k, little-endian as mp.EncodeF64s does, and returns the
// offset past them.
func (a *fieldAccessor) encodeRange(out []byte, k, lo, hi int) int {
	switch a.kind {
	case kindFloat64s:
		k = encodeF64sAt(out, k, (*a.fs)[lo:hi])
	case kindInts:
		for _, x := range (*a.is)[lo:hi] {
			binary.LittleEndian.PutUint64(out[k:], math.Float64bits(float64(x)))
			k += 8
		}
	case kindMatrix:
		for _, row := range (*a.f2)[lo:hi] {
			k = encodeF64sAt(out, k, row)
		}
	}
	return k
}

// decodeRange is the inverse of encodeRange: it fills indices [lo, hi)
// from frame at byte offset k and returns the offset past them.
func (a *fieldAccessor) decodeRange(frame []byte, k, lo, hi int) int {
	switch a.kind {
	case kindFloat64s:
		k = decodeF64sAt((*a.fs)[lo:hi], frame, k)
	case kindInts:
		v := (*a.is)[lo:hi]
		for i := range v {
			v[i] = int(math.Float64frombits(binary.LittleEndian.Uint64(frame[k:])))
			k += 8
		}
	case kindMatrix:
		for _, row := range (*a.f2)[lo:hi] {
			k = decodeF64sAt(row, frame, k)
		}
	}
	return k
}

func encodeF64sAt(out []byte, k int, v []float64) int {
	for _, f := range v {
		binary.LittleEndian.PutUint64(out[k:], math.Float64bits(f))
		k += 8
	}
	return k
}

func decodeF64sAt(dst []float64, frame []byte, k int) int {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(frame[k:]))
		k += 8
	}
	return k
}

// packOwned flattens the indices of a partitioned field owned by part p
// into a float64 vector (the payload of a shard snapshot).
func (b *boundFields) packOwned(name string, l partition.Layout, p int) ([]float64, error) {
	a, err := b.flatAccessor(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, l.Count(p)*a.width())
	l.LocalSpan(p, 0, l.N, func(lo, hi int) { out = a.appendRange(out, lo, hi) })
	return out, nil
}

// unpackOwned writes a packed vector back into the indices owned by part p.
func (b *boundFields) unpackOwned(name string, l partition.Layout, p int, data []float64) error {
	a, err := b.flatAccessor(name)
	if err != nil {
		return err
	}
	if want := l.Count(p) * a.width(); len(data) != want {
		return fmt.Errorf("core: field %q: part %d block has %d values, want %d", name, p, len(data), want)
	}
	l.LocalSpan(p, 0, l.N, func(lo, hi int) { data = a.storeRange(data, lo, hi) })
	return nil
}

// packOwnedWire encodes the indices of a partitioned field owned by part p
// straight into a wire frame: exactly the bytes of mp.EncodeF64s over
// packOwned's vector, without materialising that vector. Gather and
// scatter move multi-megabyte blocks, and every intermediate copy of them
// is memory traffic on the blocking path.
func (b *boundFields) packOwnedWire(name string, l partition.Layout, p int) ([]byte, error) {
	a, err := b.flatAccessor(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8*l.Count(p)*a.width())
	k := 0
	l.LocalSpan(p, 0, l.N, func(lo, hi int) { k = a.encodeRange(out, k, lo, hi) })
	return out, nil
}

// unpackOwnedWire decodes a frame produced by packOwnedWire for part p
// straight into the indices that part owns.
func (b *boundFields) unpackOwnedWire(name string, l partition.Layout, p int, frame []byte) error {
	a, err := b.flatAccessor(name)
	if err != nil {
		return err
	}
	if want := 8 * l.Count(p) * a.width(); len(frame) != want {
		return fmt.Errorf("core: field %q: part %d frame has %d bytes, want %d", name, p, len(frame), want)
	}
	k := 0
	l.LocalSpan(p, 0, l.N, func(lo, hi int) { k = a.decodeRange(frame, k, lo, hi) })
	return nil
}

// packSpanWire encodes the contiguous index range [lo, hi) of a
// partitioned field into a wire frame — the transfer unit of the Task-mode
// cross-rank rebalancer, which moves spans between the old and new Block
// boundaries.
func (b *boundFields) packSpanWire(name string, lo, hi int) ([]byte, error) {
	a, err := b.flatAccessor(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8*(hi-lo)*a.width())
	a.encodeRange(out, 0, lo, hi)
	return out, nil
}

// unpackSpanWire decodes a frame produced by packSpanWire into the index
// range [lo, hi).
func (b *boundFields) unpackSpanWire(name string, lo, hi int, frame []byte) error {
	a, err := b.flatAccessor(name)
	if err != nil {
		return err
	}
	if want := 8 * (hi - lo) * a.width(); len(frame) != want {
		return fmt.Errorf("core: field %q: span [%d,%d) frame has %d bytes, want %d", name, lo, hi, len(frame), want)
	}
	a.decodeRange(frame, 0, lo, hi)
	return nil
}

// gatherAt collects the owned blocks of a partitioned field at root,
// leaving root's copy of the field fully populated. Each block is encoded
// from, and decoded into, the field's own storage; root's block never
// leaves it.
func (b *boundFields) gatherAt(name string, c *mp.Comm, root, parts int) error {
	l, err := b.layoutFor(name, parts)
	if err != nil {
		return err
	}
	var mine []byte
	if c.Rank() != root {
		if mine, err = b.packOwnedWire(name, l, c.Rank()); err != nil {
			return err
		}
	}
	got, err := c.Gather(root, mine)
	if err != nil {
		return fmt.Errorf("core: gathering field %q: %w", name, err)
	}
	if c.Rank() != root {
		return nil
	}
	for r := 0; r < parts; r++ {
		if r == root {
			continue // root's block is already in place
		}
		if err := b.unpackOwnedWire(name, l, r, got[r]); err != nil {
			return err
		}
	}
	return nil
}

// scatterFrom distributes root's full copy of a partitioned field: every
// rank receives (only) its owned block, decoded straight into its field.
func (b *boundFields) scatterFrom(name string, c *mp.Comm, root, parts int) error {
	l, err := b.layoutFor(name, parts)
	if err != nil {
		return err
	}
	var frames [][]byte
	if c.Rank() == root {
		frames = make([][]byte, parts)
		for r := 0; r < parts; r++ {
			if r == root {
				continue // root's block never leaves
			}
			if frames[r], err = b.packOwnedWire(name, l, r); err != nil {
				return err
			}
		}
	}
	mine, err := c.Scatter(root, frames)
	if err != nil {
		return fmt.Errorf("core: scattering field %q: %w", name, err)
	}
	if c.Rank() == root {
		return nil
	}
	return b.unpackOwnedWire(name, l, c.Rank(), mine)
}

// bcastField broadcasts root's full copy of a (typically replicated) field.
func (b *boundFields) bcastField(name string, c *mp.Comm, root int) error {
	var payload []byte
	if c.Rank() == root {
		v, err := b.value(name)
		if err != nil {
			return err
		}
		snap := serial.NewSnapshot("bcast", "f", 0)
		snap.Fields[name] = v
		payload = encodeSnapshot(snap)
	}
	payload, err := c.Bcast(root, payload)
	if err != nil {
		return fmt.Errorf("core: broadcasting field %q: %w", name, err)
	}
	if c.Rank() == root {
		return nil
	}
	snap, err := decodeSnapshot(payload)
	if err != nil {
		return err
	}
	return b.setValue(name, snap.Fields[name])
}

// Halo tags: exchanges between one rank pair are strictly ordered by the
// SPMD control flow and the transport preserves per-(sender,tag) FIFO
// order, so fixed tags are unambiguous. (They must NOT depend on how many
// exchanges a rank has performed: a replica that joins at run time skipped
// all earlier exchanges during its replay.)
const (
	haloTagDown = 0x3000
	haloTagUp   = 0x3001
)

// haloExchange refreshes the boundary rows of a block-partitioned matrix
// field: each rank sends its first/last owned row to the neighbouring rank
// and installs the neighbour's edge row next to its own block — the
// paper's "update" primitive, required by five-point stencils.
func (b *boundFields) haloExchange(name string, c *mp.Comm, parts int) error {
	spec := b.specs[name]
	if spec == nil || spec.Class != Partitioned || spec.Layout != partition.Block {
		return fmt.Errorf("core: halo exchange requires a block-partitioned field, got %q", name)
	}
	a := b.acc[name]
	if a == nil || a.kind != kindMatrix {
		return fmt.Errorf("core: halo exchange requires a [][]float64 field, got %q", name)
	}
	fv := *a.f2
	l, err := b.layoutFor(name, parts)
	if err != nil {
		return err
	}
	lo, hi := l.Range(c.Rank())
	tagDown, tagUp := haloTagDown, haloTagUp
	if lo >= hi {
		return nil // empty part: no rows, no neighbours
	}
	below, above := l.Neighbours(c.Rank())
	// Post sends first (transports buffer), then receive.
	if below >= 0 {
		if err := c.SendF64s(below, tagDown, fv[lo]); err != nil {
			return fmt.Errorf("core: halo send down %q: %w", name, err)
		}
	}
	if above >= 0 {
		if err := c.SendF64s(above, tagUp, fv[hi-1]); err != nil {
			return fmt.Errorf("core: halo send up %q: %w", name, err)
		}
	}
	if below >= 0 {
		row, err := c.RecvF64s(below, tagUp)
		if err != nil {
			return fmt.Errorf("core: halo recv from below %q: %w", name, err)
		}
		copy(fv[lo-1], row)
	}
	if above >= 0 {
		row, err := c.RecvF64s(above, tagDown)
		if err != nil {
			return fmt.Errorf("core: halo recv from above %q: %w", name, err)
		}
		copy(fv[hi], row)
	}
	return nil
}

// snapshot builds a serial snapshot of all SafeData fields.
func (b *boundFields) snapshot(app, mode string, sp uint64) (*serial.Snapshot, error) {
	snap := serial.NewSnapshot(app, mode, sp)
	for _, name := range b.safeDataNames() {
		v, err := b.value(name)
		if err != nil {
			return nil, err
		}
		snap.Fields[name] = v
	}
	return snap, nil
}

// restore writes a snapshot's fields back into the application.
func (b *boundFields) restore(snap *serial.Snapshot) error {
	for name, v := range snap.Fields {
		if _, ok := b.acc[name]; !ok {
			return fmt.Errorf("core: snapshot field %q does not exist on the application", name)
		}
		if err := b.setValue(name, v); err != nil {
			return err
		}
	}
	return nil
}

// shardSnapshot builds one rank's local snapshot: owned blocks of
// partitioned SafeData fields plus full copies of everything else. Each
// partitioned field also records its partition layout (ckpt.LayoutField
// metadata), so a manifest-committed save can be repartitioned into a
// different world size or execution mode at restart.
func (b *boundFields) shardSnapshot(app string, sp uint64, rank, parts int) (*serial.Snapshot, error) {
	snap := serial.NewSnapshot(app, fmt.Sprintf("shard-%d/%d", rank, parts), sp)
	for _, name := range b.safeDataNames() {
		if b.specs[name].Class == Partitioned {
			l, err := b.layoutFor(name, parts)
			if err != nil {
				return nil, err
			}
			blk, err := b.packOwned(name, l, rank)
			if err != nil {
				return nil, err
			}
			sl, err := b.shardLayout(name)
			if err != nil {
				return nil, err
			}
			snap.Fields[name] = serial.Float64s(blk)
			snap.Fields[ckpt.LayoutField(name)] = ckpt.LayoutValue(sl)
			continue
		}
		v, err := b.value(name)
		if err != nil {
			return nil, err
		}
		snap.Fields[name] = v
	}
	return snap, nil
}

// shardLayout describes how a partitioned field is split, in the form the
// re-sharding restore consumes.
func (b *boundFields) shardLayout(name string) (ckpt.ShardLayout, error) {
	spec := b.specs[name]
	sl := ckpt.ShardLayout{Kind: spec.Layout, Chunk: spec.ChunkSize}
	if sl.Chunk < 1 {
		sl.Chunk = 1
	}
	a := b.acc[name]
	switch a.kind {
	case kindFloat64s:
		sl.Elem, sl.N = ckpt.ElemFloats, len(*a.fs)
	case kindInts:
		sl.Elem, sl.N = ckpt.ElemInts, len(*a.is)
	case kindMatrix:
		v := *a.f2
		sl.Elem, sl.N = ckpt.ElemMatrix, len(v)
		if len(v) > 0 {
			sl.Cols = len(v[0])
		}
	default:
		return ckpt.ShardLayout{}, fmt.Errorf("core: partitioned field %q has unsupported kind", name)
	}
	if spec.Layout == partition.Block {
		// Record any rebalanced cut points: a same-topology restore must
		// unpack (and keep computing) under the boundaries the shards were
		// packed with, and a re-shard must reassemble through them.
		sl.Bounds = b.bounds[name]
	}
	return sl, nil
}

// restoreShard writes a rank-local snapshot back: partitioned fields into
// owned blocks, the rest verbatim; layout metadata is restore-time input
// for re-sharding, not application data.
func (b *boundFields) restoreShard(snap *serial.Snapshot, rank, parts int) error {
	for name, v := range snap.Fields {
		if ckpt.IsLayoutField(name) {
			continue
		}
		spec, ok := b.specs[name]
		if !ok {
			return fmt.Errorf("core: shard field %q unknown", name)
		}
		if spec.Class == Partitioned {
			l, err := b.layoutFor(name, parts)
			if err != nil {
				return err
			}
			// A shard packed under rebalanced boundaries must be unpacked
			// under them too: the recorded layout metadata wins over the
			// fresh (even) live layout, and its cut points are installed so
			// the resumed run keeps computing — and checkpointing — under
			// the boundaries the save captured.
			if lv, ok := snap.Fields[ckpt.LayoutField(name)]; ok {
				sl, perr := ckpt.ParseLayout(name, lv)
				if perr != nil {
					return perr
				}
				if spec.Layout == partition.Block && len(sl.Bounds) == parts+1 {
					l = l.WithBounds(sl.Bounds)
					b.setBounds(name, sl.Bounds)
				}
			}
			if err := b.unpackOwned(name, l, rank, v.Fs); err != nil {
				return err
			}
			continue
		}
		if err := b.setValue(name, v); err != nil {
			return err
		}
	}
	return nil
}

func encodeSnapshot(s *serial.Snapshot) []byte {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		panic(fmt.Sprintf("core: in-memory snapshot encode failed: %v", err))
	}
	return buf.Bytes()
}

func decodeSnapshot(b []byte) (*serial.Snapshot, error) {
	return serial.Decode(bytes.NewReader(b))
}
