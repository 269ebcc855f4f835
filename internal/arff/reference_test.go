package arff

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/dataset"
)

// This file keeps the row splitter and writer the allocation-lean ones
// replaced, and a parser built on the old splitter. They are the oracle
// FuzzParse holds the package to: the same cells, datasets and errors
// from any input, and the same bytes from Format.

// referenceParse is Parse over referenceSplitDataLine.
func referenceParse(r io.Reader) (*dataset.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	d := dataset.New("unnamed")
	inData := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if !inData {
			lower := strings.ToLower(line)
			switch {
			case strings.HasPrefix(lower, "@relation"):
				name := strings.TrimSpace(line[len("@relation"):])
				d.Relation = unquote(name)
			case strings.HasPrefix(lower, "@attribute"):
				attr, err := referenceParseAttribute(strings.TrimSpace(line[len("@attribute"):]))
				if err != nil {
					return nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
				}
				d.Attrs = append(d.Attrs, attr)
			case strings.HasPrefix(lower, "@data"):
				if len(d.Attrs) == 0 {
					return nil, fmt.Errorf("arff: line %d: @data before any @attribute", lineNo)
				}
				inData = true
			default:
				return nil, fmt.Errorf("arff: line %d: unrecognised declaration %q", lineNo, line)
			}
			continue
		}
		cells, err := referenceSplitDataLine(line)
		if err != nil {
			return nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
		}
		if err := d.AddRow(cells); err != nil {
			return nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("arff: %w", err)
	}
	if !inData {
		return nil, fmt.Errorf("arff: missing @data section")
	}
	if len(d.Attrs) > 0 {
		d.ClassIndex = len(d.Attrs) - 1
	}
	return d, nil
}

func referenceParseAttribute(spec string) (*dataset.Attribute, error) {
	name, rest, err := takeName(spec)
	if err != nil {
		return nil, err
	}
	rest = strings.TrimSpace(rest)
	lower := strings.ToLower(rest)
	switch {
	case strings.HasPrefix(rest, "{"):
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return nil, fmt.Errorf("unterminated nominal specification %q", rest)
		}
		labels, err := referenceSplitDataLine(rest[1:end])
		if err != nil {
			return nil, err
		}
		for i := range labels {
			labels[i] = strings.TrimSpace(labels[i])
		}
		return dataset.NewNominalAttribute(name, labels...), nil
	case lower == "numeric" || lower == "real" || lower == "integer":
		return dataset.NewNumericAttribute(name), nil
	case lower == "string":
		return dataset.NewStringAttribute(name), nil
	default:
		return nil, fmt.Errorf("unsupported attribute type %q", rest)
	}
}

// referenceSplitDataLine splits a comma-separated ARFF data row
// honouring quotes, building every cell byte by byte.
func referenceSplitDataLine(line string) ([]string, error) {
	var cells []string
	var cur strings.Builder
	inQuote := byte(0)
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inQuote != 0:
			if c == '\\' && i+1 < len(line) {
				cur.WriteByte(line[i+1])
				i++
			} else if c == inQuote {
				inQuote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			inQuote = c
		case c == ',':
			cells = append(cells, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote != 0 {
		return nil, fmt.Errorf("unterminated quote in %q", line)
	}
	cells = append(cells, strings.TrimSpace(cur.String()))
	return cells, nil
}

// referenceFormat renders d through CellString and per-cell quoting.
func referenceFormat(d *dataset.Dataset) string {
	var b strings.Builder
	bw := bufio.NewWriter(&b)
	fmt.Fprintf(bw, "@relation %s\n\n", referenceQuoteToken(d.Relation))
	for _, a := range d.Attrs {
		fmt.Fprintln(bw, a.SpecString())
	}
	fmt.Fprintln(bw, "\n@data")
	for _, in := range d.Instances {
		for col := range d.Attrs {
			if col > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(referenceQuoteToken(d.CellString(in, col)))
		}
		bw.WriteByte('\n')
	}
	_ = bw.Flush()
	return b.String()
}

func referenceQuoteToken(s string) string {
	if s == "" {
		return "''"
	}
	if strings.ContainsAny(s, " \t,{}%") && s != "?" {
		return "'" + strings.ReplaceAll(s, "'", `\'`) + "'"
	}
	return s
}

// sameDataset reports the first difference between two parsed
// datasets: schema, class index, and every cell and weight bit for bit.
func sameDataset(got, want *dataset.Dataset) error {
	if got.Relation != want.Relation || got.ClassIndex != want.ClassIndex || len(got.Attrs) != len(want.Attrs) {
		return fmt.Errorf("header %q/%d/%d attrs, want %q/%d/%d",
			got.Relation, got.ClassIndex, len(got.Attrs), want.Relation, want.ClassIndex, len(want.Attrs))
	}
	for j, wa := range want.Attrs {
		ga := got.Attrs[j]
		if ga.Name != wa.Name || ga.Kind != wa.Kind || !slices.Equal(ga.Values(), wa.Values()) {
			return fmt.Errorf("attribute %d is %s %v, want %s %v", j, ga.SpecString(), ga.Values(), wa.SpecString(), wa.Values())
		}
	}
	if len(got.Instances) != len(want.Instances) {
		return fmt.Errorf("%d rows, want %d", len(got.Instances), len(want.Instances))
	}
	for i, wi := range want.Instances {
		gi := got.Instances[i]
		if math.Float64bits(gi.Weight) != math.Float64bits(wi.Weight) || len(gi.Values) != len(wi.Values) {
			return fmt.Errorf("row %d shape or weight differs", i)
		}
		for j, v := range wi.Values {
			if math.Float64bits(gi.Values[j]) != math.Float64bits(v) {
				return fmt.Errorf("cell (%d,%d) = %v, want %v", i, j, gi.Values[j], v)
			}
		}
	}
	return nil
}
