// Package arff reads and writes the Attribute Relation File Format (ARFF),
// the native data format of the paper's toolkit: every data-mining Web
// Service in §4.1 requires its dataset "in the ARFF format".
package arff

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// Parse reads an ARFF document from r into a Dataset. Comments (%), blank
// lines, quoted identifiers and sparse whitespace are handled; date and
// relational attributes are not supported (the toolkit never uses them).
func Parse(r io.Reader) (*dataset.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	d := dataset.New("unnamed")
	inData := false
	lineNo := 0
	var cells []string // reused: AddRow keeps no reference to it
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
				attr, err := parseAttribute(strings.TrimSpace(line[len("@attribute"):]))
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
		var err error
		if cells, err = splitDataLine(cells[:0], line); err != nil {
			return nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
		}
		if err = d.AddRow(cells); err != nil {
			return nil, fmt.Errorf("arff: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("arff: %w", err)
	}
	if !inData {
		return nil, fmt.Errorf("arff: missing @data section")
	}
	// By toolkit convention the last attribute is the class unless changed.
	if len(d.Attrs) > 0 {
		d.ClassIndex = len(d.Attrs) - 1
	}
	return d, nil
}

// ParseString is a convenience wrapper over Parse.
func ParseString(s string) (*dataset.Dataset, error) {
	return Parse(strings.NewReader(s))
}

func parseAttribute(spec string) (*dataset.Attribute, error) {
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
		inner := rest[1:end]
		labels, err := splitDataLine(nil, inner)
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

// takeName splits a possibly quoted attribute name from the remainder.
func takeName(s string) (name, rest string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", "", fmt.Errorf("empty attribute specification")
	}
	if s[0] == '\'' || s[0] == '"' {
		q := s[0]
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == q {
				return unescape(s[1:i]), s[i+1:], nil
			}
		}
		return "", "", fmt.Errorf("unterminated quoted name in %q", s)
	}
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return "", "", fmt.Errorf("attribute %q has no type", s)
	}
	return s[:i], s[i+1:], nil
}

// splitDataLine appends the cells of a comma-separated ARFF data row to
// dst, honouring quotes: a quote opens a run, up to the matching quote,
// in which commas are literal and a backslash escapes the next byte.
// Cells are trimmed of surrounding space. A cell without quotes is a
// substring of line; only a quoted cell is built byte by byte.
func splitDataLine(dst []string, line string) ([]string, error) {
	for start := 0; ; {
		i := start
		for i < len(line) && line[i] != ',' && line[i] != '\'' && line[i] != '"' {
			i++
		}
		var cell string
		if i < len(line) && line[i] != ',' {
			var err error
			if cell, i, err = quotedCell(line, start); err != nil {
				return nil, err
			}
		} else {
			cell = strings.TrimSpace(line[start:i])
		}
		dst = append(dst, cell)
		if i == len(line) {
			return dst, nil
		}
		start = i + 1
	}
}

// quotedCell builds the cell starting at line[start:] that contains a
// quote, returning it trimmed with the index of the comma (or line end)
// that ends it.
func quotedCell(line string, start int) (string, int, error) {
	var cur []byte
	inQuote := byte(0)
	i := start
	for ; i < len(line); i++ {
		c := line[i]
		switch {
		case inQuote != 0:
			if c == '\\' && i+1 < len(line) {
				cur = append(cur, line[i+1])
				i++
			} else if c == inQuote {
				inQuote = 0
			} else {
				cur = append(cur, c)
			}
		case c == '\'' || c == '"':
			inQuote = c
		case c == ',':
			return strings.TrimSpace(string(cur)), i, nil
		default:
			cur = append(cur, c)
		}
	}
	if inQuote != 0 {
		return "", 0, fmt.Errorf("unterminated quote in %q", line)
	}
	return strings.TrimSpace(string(cur)), i, nil
}

func unquote(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0] {
		return unescape(s[1 : len(s)-1])
	}
	return s
}

func unescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// Write renders d as an ARFF document.
func Write(w io.Writer, d *dataset.Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "@relation %s\n\n", quoteToken(d.Relation))
	for _, a := range d.Attrs {
		fmt.Fprintln(bw, a.SpecString())
	}
	fmt.Fprintln(bw, "\n@data")
	var row []byte // reused for every row
	for _, in := range d.Instances {
		row = appendRow(row[:0], d, in)
		_, _ = bw.Write(row) // a write error sticks in bw; Flush returns it
	}
	return bw.Flush()
}

// appendRow appends in's cells as one ARFF data line: numbers through
// strconv.AppendFloat, labels through appendToken.
func appendRow(b []byte, d *dataset.Dataset, in *dataset.Instance) []byte {
	for col, v := range in.Values[:len(d.Attrs)] {
		if col > 0 {
			b = append(b, ',')
		}
		switch a := d.Attrs[col]; {
		case dataset.IsMissing(v):
			b = append(b, '?')
		case a.Kind == dataset.Numeric:
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		default:
			b = appendToken(b, a.Value(int(v)))
		}
	}
	return append(b, '\n')
}

// Format renders d as an ARFF string.
func Format(d *dataset.Dataset) string {
	var b strings.Builder
	_ = Write(&b, d)
	return b.String()
}

func quoteToken(s string) string { return string(appendToken(nil, s)) }

// appendToken appends s as an ARFF token: quoted, with inner quotes
// escaped, when it is empty or holds a space, tab, comma, brace or '%'.
func appendToken(b []byte, s string) []byte {
	if s == "" {
		return append(b, "''"...)
	}
	if !strings.ContainsAny(s, " \t,{}%") || s == "?" {
		return append(b, s...)
	}
	b = append(b, '\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			b = append(b, '\\')
		}
		b = append(b, s[i])
	}
	return append(b, '\'')
}
