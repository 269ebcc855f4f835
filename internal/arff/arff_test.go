package arff

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

const weatherARFF = `% the classic weather relation
@relation weather

@attribute outlook {sunny, overcast, rainy}
@attribute temperature numeric
@attribute humidity real
@attribute windy {TRUE, FALSE}
@attribute play {yes, no}

@data
sunny,85,85,FALSE,no
overcast,83,86,FALSE,yes
rainy,70,96,FALSE,?
`

func TestParseBasics(t *testing.T) {
	d, err := ParseString(weatherARFF)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Relation != "weather" {
		t.Fatalf("relation = %q", d.Relation)
	}
	if d.NumAttributes() != 5 || d.NumInstances() != 3 {
		t.Fatalf("shape %dx%d", d.NumInstances(), d.NumAttributes())
	}
	if d.ClassIndex != 4 {
		t.Fatalf("default class index = %d", d.ClassIndex)
	}
	if d.Attrs[1].Kind != dataset.Numeric || d.Attrs[2].Kind != dataset.Numeric {
		t.Fatal("numeric/real attributes not numeric")
	}
	if got := d.CellString(d.Instances[0], 0); got != "sunny" {
		t.Fatalf("cell(0,0) = %q", got)
	}
	if !d.Instances[2].IsMissing(4) {
		t.Fatal("? not parsed as missing")
	}
}

func TestParseQuotedNamesAndValues(t *testing.T) {
	doc := `@relation 'my relation'
@attribute 'attr one' {'value 1', 'value 2'}
@attribute x numeric
@data
'value 1', 3.5
"value 2", 4
`
	d, err := ParseString(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Relation != "my relation" {
		t.Fatalf("relation = %q", d.Relation)
	}
	if d.Attrs[0].Name != "attr one" {
		t.Fatalf("attr name = %q", d.Attrs[0].Name)
	}
	if got := d.CellString(d.Instances[0], 0); got != "value 1" {
		t.Fatalf("cell = %q", got)
	}
}

func TestParseStringAttribute(t *testing.T) {
	doc := "@relation s\n@attribute note string\n@attribute x numeric\n@data\nhello,1\nworld,2\nhello,3\n"
	d, err := ParseString(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !d.Attrs[0].IsString() {
		t.Fatal("string attribute not string")
	}
	if d.Attrs[0].NumValues() != 2 {
		t.Fatalf("interned %d distinct strings", d.Attrs[0].NumValues())
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no data":            "@relation r\n@attribute x numeric\n",
		"data before attr":   "@relation r\n@data\n1\n",
		"bad declaration":    "@relation r\n@foo\n@data\n",
		"bad type":           "@relation r\n@attribute x date\n@data\n",
		"unclosed nominal":   "@relation r\n@attribute x {a,b\n@data\n",
		"bad numeric cell":   "@relation r\n@attribute x numeric\n@data\nfoo\n",
		"unknown nominal":    "@relation r\n@attribute x {a}\n@data\nb\n",
		"wrong width":        "@relation r\n@attribute x numeric\n@attribute y numeric\n@data\n1\n",
		"unterminated quote": "@relation r\n@attribute x {a}\n@data\n'a\n",
	}
	for name, doc := range cases {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("%s: no error for %q", name, doc)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	doc := "% header comment\n\n@relation r\n% another\n@attribute x numeric\n\n@data\n% data comment\n1\n\n2\n"
	d, err := ParseString(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.NumInstances() != 2 {
		t.Fatalf("instances = %d", d.NumInstances())
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	d, err := ParseString(weatherARFF)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(d)
	d2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if d2.NumInstances() != d.NumInstances() || d2.NumAttributes() != d.NumAttributes() {
		t.Fatalf("round trip changed shape: %s", text)
	}
	for i, in := range d.Instances {
		for col := range d.Attrs {
			a, b := d.CellString(in, col), d2.CellString(d2.Instances[i], col)
			if a != b {
				t.Fatalf("cell (%d,%d): %q != %q", i, col, a, b)
			}
		}
	}
}

// TestRoundTripProperty round-trips random datasets through ARFF text.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%30 + 1
		d := dataset.New("prop",
			dataset.NewNumericAttribute("x"),
			dataset.NewNominalAttribute("c", "alpha", "beta", "gamma"),
			dataset.NewNominalAttribute("k", "yes", "no"))
		d.ClassIndex = 2
		for i := 0; i < n; i++ {
			vals := []float64{rng.NormFloat64() * 100, float64(rng.Intn(3)), float64(rng.Intn(2))}
			if rng.Float64() < 0.2 {
				vals[rng.Intn(3)] = dataset.Missing
			}
			d.MustAdd(dataset.NewInstance(vals))
		}
		d2, err := ParseString(Format(d))
		if err != nil {
			return false
		}
		if d2.NumInstances() != n {
			return false
		}
		for i, in := range d.Instances {
			for col := range d.Attrs {
				if d.CellString(in, col) != d2.CellString(d2.Instances[i], col) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteQuoting(t *testing.T) {
	d := dataset.New("rel with space",
		dataset.NewNominalAttribute("c", "has space", "plain"))
	d.MustAdd(dataset.NewInstance([]float64{0}))
	text := Format(d)
	if !strings.Contains(text, "'has space'") {
		t.Fatalf("values with spaces not quoted:\n%s", text)
	}
	d2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if got := d2.CellString(d2.Instances[0], 0); got != "has space" {
		t.Fatalf("quoted value round-trip = %q", got)
	}
}

// numericARFF renders rows x cols of numeric cells, some missing.
func numericARFF(rows, cols int) string {
	rng := rand.New(rand.NewSource(int64(rows*cols + 1)))
	d := dataset.New("numeric")
	for j := 0; j < cols; j++ {
		d.Attrs = append(d.Attrs, dataset.NewNumericAttribute(fmt.Sprintf("x%d", j)))
	}
	for i := 0; i < rows; i++ {
		vals := make([]float64, cols)
		for j := range vals {
			vals[j] = rng.NormFloat64() * 100
			if rng.Intn(20) == 0 {
				vals[j] = dataset.Missing
			}
		}
		d.MustAdd(dataset.NewInstance(vals))
	}
	return Format(d)
}

// TestParseNumericAllocsPerRow pins the parser's allocation shape: a
// wide all-numeric row costs its line and its Instance, never a string
// per cell.
func TestParseNumericAllocsPerRow(t *testing.T) {
	const rows, cols = 512, 16
	doc := numericARFF(rows, cols)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseString(doc); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow >= 3 {
		t.Fatalf("%.0f allocations for %d rows of %d cells (%.2f a row), want under 3 a row", allocs, rows, cols, perRow)
	}
}

// TestWriteRowsAllocateNothing pins the writer's: a row rendered into a
// buffer with room costs no allocation, numbers, labels and quoting
// included.
func TestWriteRowsAllocateNothing(t *testing.T) {
	d, err := ParseString(numericARFF(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	w, err := ParseString(weatherARFF)
	if err != nil {
		t.Fatal(err)
	}
	w.Attrs[0] = dataset.NewNominalAttribute("outlook", "sunny day", "overcast", "it's rainy")
	row := make([]byte, 0, 1<<12)
	for _, ds := range []*dataset.Dataset{d, w} {
		allocs := testing.AllocsPerRun(5, func() {
			for _, in := range ds.Instances {
				row = appendRow(row[:0], ds, in)
			}
		})
		if allocs != 0 {
			t.Fatalf("rendering %d rows of %s allocated %.0f times", len(ds.Instances), ds.Relation, allocs)
		}
	}
}

func TestSplitDataLineMatchesReference(t *testing.T) {
	for _, line := range []string{
		"", ",", " a , b ", "'a,b',c", `"x\"y",z`, "ab'c,d'e,f", "' padded ',x", `'a\`, "'open",
		`a\b,c`, "'',\"\"", "1,2,3,", "'it''s',x", " , ,",
	} {
		got, gotErr := splitDataLine(nil, line)
		want, wantErr := referenceSplitDataLine(line)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Errorf("split(%q) = %q, %v; want %q, %v", line, got, gotErr, want, wantErr)
		}
	}
}

// FuzzParse holds the parser and the writer to the reference copies in
// reference_test.go: every line splits into the same cells, every
// document parses to the same dataset or fails with the same error, and
// every parsed dataset formats to the same bytes.
func FuzzParse(f *testing.F) {
	for _, doc := range []string{
		weatherARFF,
		numericARFF(8, 3),
		Format(datagen.IrisLike(5, 1)),
		Format(datagen.Weather()),
		"@relation 'my relation'\n@attribute 'attr one' {'value 1', 'value 2'}\n@attribute x numeric\n@data\n'value 1', 3.5\n\"value 2\", 4\n",
		"@relation s\n@attribute note string\n@attribute x numeric\n@data\nhello,1\n'a,b\\'c',2\n' padded ',3\n",
		"@relation r\n@attribute x {a}\n@data\n'a\n",
		"@relation r\n@attribute x numeric\n@attribute y numeric\n@data\n1\n",
		"% c\n\n@relation r\n@attribute x numeric\n@data\n% d\n1\n\n?\n",
	} {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, line := range strings.Split(doc, "\n") {
			got, gotErr := splitDataLine(nil, line)
			want, wantErr := referenceSplitDataLine(line)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
				t.Fatalf("split(%q) = %q, %v; want %q, %v", line, got, gotErr, want, wantErr)
			}
		}
		got, gotErr := ParseString(doc)
		want, wantErr := referenceParse(strings.NewReader(doc))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Parse error %v, reference %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if err := sameDataset(got, want); err != nil {
			t.Fatalf("Parse differs from the reference: %v", err)
		}
		if g, w := Format(got), referenceFormat(got); g != w {
			t.Fatalf("Format = %q, reference %q", g, w)
		}
	})
}

func BenchmarkParseNumeric(b *testing.B) {
	doc := numericARFF(1024, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormatNumeric(b *testing.B) {
	d, err := ParseString(numericARFF(1024, 8))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Format(d)
	}
}
