package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file keeps the encoding/xml envelope codec the scanner replaced.
// It is the oracle the differential tests and fuzz targets hold the
// scanner to: whatever the scanner accepts, the reference must accept
// with the same result, and Marshal must emit the reference's bytes.

// referenceMarshal renders a message with encoding/xml's escaper.
func referenceMarshal(m Message) ([]byte, error) {
	if m.Operation == "" {
		return nil, fmt.Errorf("soap: message has no operation")
	}
	var b bytes.Buffer
	b.WriteString(xml.Header)
	fmt.Fprintf(&b, `<soap:Envelope xmlns:soap=%q>`, EnvelopeNS)
	if m.Trace != "" {
		fmt.Fprintf(&b, `<soap:Header><TraceContext xmlns=%q>`, TraceNS)
		if err := xml.EscapeText(&b, []byte(m.Trace)); err != nil {
			return nil, err
		}
		b.WriteString(`</TraceContext></soap:Header>`)
	}
	b.WriteString(`<soap:Body>`)
	fmt.Fprintf(&b, "<%s>", m.Operation)
	keys := make([]string, 0, len(m.Parts))
	for k := range m.Parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !validName(k) {
			return nil, fmt.Errorf("soap: invalid part name %q", k)
		}
		fmt.Fprintf(&b, "<%s>", k)
		if err := xml.EscapeText(&b, []byte(m.Parts[k])); err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "</%s>", k)
	}
	fmt.Fprintf(&b, "</%s>", m.Operation)
	b.WriteString(`</soap:Body></soap:Envelope>`)
	return b.Bytes(), nil
}

// referenceUnmarshal parses an envelope with encoding/xml's tokenizer.
func referenceUnmarshal(r io.Reader) (Message, error) {
	dec := xml.NewDecoder(r)
	msg := Message{Parts: map[string]string{}}
	depth := 0
	inBody := false
	inHeader := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return msg, fmt.Errorf("soap: malformed envelope: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			switch {
			case depth == 1:
				if t.Name.Local != "Envelope" {
					return msg, fmt.Errorf("soap: root element %q is not Envelope", t.Name.Local)
				}
			case depth == 2 && t.Name.Local == "Header":
				inHeader = true
			case depth == 2 && t.Name.Local == "Body":
				inBody = true
			case depth == 3 && inHeader:
				if t.Name.Local == "TraceContext" {
					var v string
					if err := dec.DecodeElement(&v, &t); err != nil {
						return msg, fmt.Errorf("soap: malformed trace header: %w", err)
					}
					msg.Trace = strings.TrimSpace(v)
				} else if err := dec.Skip(); err != nil {
					return msg, fmt.Errorf("soap: malformed header: %w", err)
				}
				depth--
			case depth == 3 && inBody:
				if t.Name.Local == "Fault" {
					var f Fault
					if err := dec.DecodeElement(&f, &t); err != nil {
						return msg, fmt.Errorf("soap: malformed fault: %w", err)
					}
					return msg, &f
				}
				msg.Operation = t.Name.Local
				if err := referenceDecodeParts(dec, &msg); err != nil {
					return msg, err
				}
				depth--
			}
		case xml.EndElement:
			depth--
			if depth == 1 && t.Name.Local == "Header" {
				inHeader = false
			}
		}
	}
	if msg.Operation == "" {
		return msg, fmt.Errorf("soap: envelope has no operation element")
	}
	return msg, nil
}

func referenceDecodeParts(dec *xml.Decoder, msg *Message) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("soap: malformed body: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var value string
			if err := dec.DecodeElement(&value, &t); err != nil {
				return fmt.Errorf("soap: malformed part %q: %w", t.Name.Local, err)
			}
			msg.Parts[t.Name.Local] = value
		case xml.EndElement:
			return nil
		}
	}
}
