package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// allocBound is the most a decoder may allocate for an n-byte block:
// what it builds is a small multiple of what the block holds, and a
// header cannot claim more elements than the bytes after it back.
func allocBound(n int) uint64 { return 1<<20 + 64*uint64(n) }

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// block assembles a raw block from its fields: strings and []byte are
// copied, ints become little-endian u32s, uint8s single bytes.
func block(fields ...any) []byte {
	var b []byte
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			b = append(b, v...)
		case []byte:
			b = append(b, v...)
		case int:
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		case uint8:
			b = append(b, v)
		default:
			panic(fmt.Sprintf("block: field of type %T", f))
		}
	}
	return b
}

// oneNumericSchema is the schema section of a block with one numeric
// attribute "x" and no class, digest included.
func oneNumericSchema() []byte {
	w := &writer{}
	if err := writeSchema(w, "", -1, []*dataset.Attribute{dataset.NewNumericAttribute("x")}); err != nil {
		panic(err)
	}
	return w.buf
}

// craftedHeaders are short blocks whose headers claim far more than
// they carry: each must fail without allocating for its claim.
func craftedHeaders() map[string][]byte {
	const v1 = uint8(version)
	return map[string][]byte{
		"dmb1 rows":          block(magicDataset, v1, uint8(0), oneNumericSchema(), 1<<25, 8<<25),
		"dmb1 weighted rows": block(magicDataset, v1, uint8(flagWeights), oneNumericSchema(), 1<<25, 8<<25),
		"dmb1 attributes":    block(magicDataset, v1, uint8(0), 0, "", noClass, 1<<30),
		"dmb1 values":        block(magicDataset, v1, uint8(0), 0, "", noClass, 1, 1, "a", uint8(1), 1<<24),
		"dmr1 classes":       block(magicResult, v1, 1<<24),
		"dmr1 rows":          block(magicResult, v1, 1, 1, "a", 1<<25, 4<<25),
		"dmc1 scores":        block(magicCluster, v1, uint8(1), 1<<24, 1, 4, 0),
		"dmc1 rows":          block(magicCluster, v1, uint8(0), 1, 1<<25, 4<<25),
		"dmv1 rows":          block(magicRegress, v1, 1, "y", 1<<25, 8<<25),
	}
}

// TestCraftedHeadersAllocateLittle is the allocation-bomb check: a few
// dozen bytes claiming 2^25 rows, 2^24 classes or 2^30 attributes must
// be refused before any allocation sized by the claim.
func TestCraftedHeadersAllocateLittle(t *testing.T) {
	for name, b := range craftedHeaders() {
		var err error
		n := allocated(func() { err = decodeAny(b) })
		if err == nil {
			t.Errorf("%s: %d-byte block accepted", name, len(b))
		}
		if n >= 1<<20 {
			t.Errorf("%s: %d-byte block allocated %d bytes before failing (%v)", name, len(b), n, err)
		}
	}
}

// decodeAny runs the decoder the block's magic names.
func decodeAny(b []byte) error {
	var err error
	switch {
	case len(b) < 4:
		_, err = Unmarshal(b)
	case string(b[:4]) == magicResult:
		_, err = UnmarshalResult(b)
	case string(b[:4]) == magicCluster:
		_, err = UnmarshalClusterResult(b)
	case string(b[:4]) == magicRegress:
		_, err = UnmarshalRegressResult(b)
	default:
		_, err = Unmarshal(b)
	}
	return err
}

// canon is v's bit pattern after an encode: every NaN becomes the
// canonical one.
func canon(v float64) uint64 {
	if math.IsNaN(v) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// sameCells reports whether got holds want's values after an encode.
func sameCells(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, v := range want {
		if math.Float64bits(got[i]) != canon(v) {
			return false
		}
	}
	return true
}

func sameColumns(got, want [][]float64) bool {
	return slices.EqualFunc(got, want, sameCells)
}

// reencoded checks that an accepted dataset re-encodes and decodes to
// the same schema and Float64bits-equal cells and weights.
func reencoded(t *testing.T, d *dataset.Dataset) {
	b, err := Marshal(d)
	if err != nil {
		t.Fatalf("accepted block does not re-encode: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("re-encoded block does not decode: %v", err)
	}
	if got.Relation != d.Relation || got.ClassIndex != d.ClassIndex || len(got.Attrs) != len(d.Attrs) {
		t.Fatalf("header changed in a round trip")
	}
	for j, a := range d.Attrs {
		g := got.Attrs[j]
		if g.Name != a.Name || g.Kind != a.Kind || !slices.Equal(g.Values(), a.Values()) {
			t.Fatalf("attribute %d changed in a round trip", j)
		}
	}
	if !sameColumns(got.Columns(), d.Columns()) {
		t.Fatal("cells changed in a round trip")
	}
	if !sameCells(got.WeightsSlice(), d.WeightsSlice()) {
		t.Fatal("weights changed in a round trip")
	}
}

// FuzzUnmarshal feeds arbitrary bytes to the dmb1 decoder: it must not
// panic, must allocate within allocBound, and every block it accepts
// must survive a re-encode bit for bit (NaN canonical).
func FuzzUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		b, err := Marshal(randomDataset(rng, rng.Intn(6)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	for _, b := range craftedHeaders() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var d *dataset.Dataset
		var err error
		if n := allocated(func() { d, err = Unmarshal(b) }); n > allocBound(len(b)) {
			t.Fatalf("%d-byte block allocated %d bytes", len(b), n)
		}
		if err == nil {
			reencoded(t, d)
		}
	})
}

// FuzzUnmarshalResult does the same for the DMR1, DMC1 and DMV1 result
// decoders, each fed every input.
func FuzzUnmarshalResult(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 4; trial++ {
		rows := rng.Intn(6)
		res := &Result{Classes: []string{"a", "b"}, Labels: make([]int, rows),
			Distributions: [][]float64{make([]float64, rows), make([]float64, rows)}}
		for i := range res.Labels {
			res.Labels[i] = rng.Intn(2)
			res.Distributions[0][i] = rng.Float64()
			res.Distributions[1][i] = 1 - res.Distributions[0][i]
		}
		values := make([]float64, rows)
		for i := range values {
			values[i] = rng.NormFloat64()
		}
		for _, enc := range []func() ([]byte, error){
			func() ([]byte, error) { return MarshalResult(res) },
			func() ([]byte, error) { return MarshalClusterResult(randomClusterResult(rng, rows)) },
			func() ([]byte, error) { return MarshalRegressResult(&RegressResult{Target: "y", Values: values}) },
		} {
			b, err := enc()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
			f.Add(b[:len(b)/2])
		}
	}
	for _, b := range craftedHeaders() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var res *Result
		var cres *ClusterResult
		var vres *RegressResult
		var rerr, cerr, verr error
		n := allocated(func() {
			res, rerr = UnmarshalResult(b)
			cres, cerr = UnmarshalClusterResult(b)
			vres, verr = UnmarshalRegressResult(b)
		})
		if n > allocBound(len(b)) {
			t.Fatalf("%d-byte block allocated %d bytes", len(b), n)
		}
		if rerr == nil {
			got, err := roundTrip(res, MarshalResult, UnmarshalResult)
			if err != nil || !slices.Equal(got.Classes, res.Classes) || !slices.Equal(got.Labels, res.Labels) ||
				!sameColumns(got.Distributions, res.Distributions) {
				t.Fatalf("DMR1 result changed in a round trip (%v)", err)
			}
		}
		if cerr == nil {
			got, err := roundTrip(cres, MarshalClusterResult, UnmarshalClusterResult)
			if err != nil || got.Clusters != cres.Clusters || got.ScoreKind != cres.ScoreKind ||
				!slices.Equal(got.Assignments, cres.Assignments) || !sameColumns(got.Scores, cres.Scores) {
				t.Fatalf("DMC1 result changed in a round trip (%v)", err)
			}
		}
		if verr == nil {
			got, err := roundTrip(vres, MarshalRegressResult, UnmarshalRegressResult)
			if err != nil || got.Target != vres.Target || !sameCells(got.Values, vres.Values) {
				t.Fatalf("DMV1 result changed in a round trip (%v)", err)
			}
		}
	})
}

// roundTrip re-encodes an accepted value and decodes it again.
func roundTrip[T any](v T, enc func(T) ([]byte, error), dec func([]byte) (T, error)) (T, error) {
	b, err := enc(v)
	if err != nil {
		var zero T
		return zero, err
	}
	return dec(b)
}

// fixedDataset is a five-attribute weighted batch of the given height.
func fixedDataset(rows int) *dataset.Dataset {
	attrs := []*dataset.Attribute{
		dataset.NewNumericAttribute("a"), dataset.NewNumericAttribute("b"),
		dataset.NewNumericAttribute("c"), dataset.NewNumericAttribute("d"),
		dataset.NewNominalAttribute("class", "x", "y", "z"),
	}
	cols := make([][]float64, len(attrs))
	for j := range cols {
		cols[j] = make([]float64, rows)
		for i := range cols[j] {
			cols[j][i] = float64((i + j) % 3)
		}
	}
	weights := make([]float64, rows)
	for i := range weights {
		weights[i] = 0.5
	}
	d, err := dataset.FromColumns("fixed", attrs, len(attrs)-1, cols, weights)
	if err != nil {
		panic(err)
	}
	return d
}

// TestDecodeAllocsFlatInRows pins the decoder's allocation shape: a
// block costs allocations per attribute, none per row, so 1024 and 4096
// rows of the same schema allocate the same number of times.
func TestDecodeAllocsFlatInRows(t *testing.T) {
	decodeAllocs := func(rows int) float64 {
		s, err := MarshalBase64(fixedDataset(rows))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := UnmarshalBase64(s); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := decodeAllocs(1024), decodeAllocs(4096); small != large {
		t.Fatalf("UnmarshalBase64 allocates %.0f times for 1024 rows, %.0f for 4096", small, large)
	}
}

// TestMarshalPresizesExactly pins the encoders' sizing: each block is
// one allocation of exactly its length, so no append outgrew the
// presized buffer and none was oversized. A weighted dataset adds the
// one weights slice.
func TestMarshalPresizesExactly(t *testing.T) {
	weighted := fixedDataset(300)
	d := fixedDataset(300)
	for _, in := range d.Instances {
		in.Weight = 1
	}
	d.Attrs[4] = dataset.NewNominalAttribute("class", "a much longer label", "y", "")
	d.Relation = "a relation name of some length"
	res := &Result{Classes: []string{"yes", "no"}, Labels: make([]int, 300),
		Distributions: [][]float64{make([]float64, 300), make([]float64, 300)}}
	cres := randomClusterResult(rand.New(rand.NewSource(1)), 300)
	cres.ScoreKind, cres.Scores = ScoreDistance, make([][]float64, cres.Clusters)
	for c := range cres.Scores {
		cres.Scores[c] = make([]float64, 300)
	}
	vres := &RegressResult{Target: "petalwidth", Values: make([]float64, 300)}
	cases := []struct {
		name   string
		enc    func() ([]byte, error)
		allocs float64
	}{
		{"dmb1", func() ([]byte, error) { return Marshal(d) }, 1},
		{"weighted dmb1", func() ([]byte, error) { return Marshal(weighted) }, 2},
		{"dmr1", func() ([]byte, error) { return MarshalResult(res) }, 1},
		{"dmc1", func() ([]byte, error) { return MarshalClusterResult(cres) }, 1},
		{"dmv1", func() ([]byte, error) { return MarshalRegressResult(vres) }, 1},
	}
	for _, c := range cases {
		b, err := c.enc()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(b) != cap(b) {
			t.Errorf("%s: %d-byte block in a buffer of %d", c.name, len(b), cap(b))
		}
		if got := testing.AllocsPerRun(20, func() { _, _ = c.enc() }); got != c.allocs {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, got, c.allocs)
		}
	}
}
