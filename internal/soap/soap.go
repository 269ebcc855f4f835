// Package soap implements the SOAP 1.1 messaging substrate of the toolkit.
// The paper deploys its services with Apache Axis over Tomcat and drives
// them through "pre-defined SOAP messages" (§4.5); this package provides
// the same wire model on net/http: document-style envelopes whose body
// element names the operation and whose children carry named string parts.
package soap

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// EnvelopeNS is the SOAP 1.1 envelope namespace.
const EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"

// TraceNS is the namespace of the TraceContext header block carrying the
// toolkit's trace propagation (see internal/obs).
const TraceNS = "urn:faehim:trace"

// Message is an operation invocation or reply: the operation name plus
// named string parts. Binary parts (e.g. PNG images) travel base64-encoded.
// Trace, when non-empty, is the obs trace context ("traceID-spanID")
// carried in a <TraceContext> SOAP header block.
type Message struct {
	Operation string
	Parts     map[string]string
	Trace     string
}

// Fault is a SOAP fault, also used as the Go error for failed calls.
type Fault struct {
	Code   string `xml:"faultcode"`
	String string `xml:"faultstring"`
	Detail string `xml:"detail,omitempty"`
	// Retry is the server's Retry-After hint for shed (ServerBusy)
	// requests. It travels in HTTP response headers, not the envelope;
	// the client attaches it here so retry policies can honor it.
	Retry time.Duration `xml:"-"`
}

// FaultCode exposes the fault class for metric labelling (obs.FaultClass).
func (f *Fault) FaultCode() string { return f.Code }

// RetryAfterHint exposes the server's backoff hint (zero = none) through
// the interface resilience.RetryAfter recognises.
func (f *Fault) RetryAfterHint() time.Duration { return f.Retry }

// Error implements error.
func (f *Fault) Error() string {
	if f.Detail != "" {
		return fmt.Sprintf("soap fault %s: %s (%s)", f.Code, f.String, f.Detail)
	}
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

const (
	envelopeOpen = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<soap:Envelope xmlns:soap="` + EnvelopeNS + `">`
	traceOpen  = `<soap:Header><TraceContext xmlns="` + TraceNS + `">`
	traceClose = `</TraceContext></soap:Header>`
	bodyOpen   = `<soap:Body>`
	bodyClose  = `</soap:Body></soap:Envelope>`
)

// Marshal renders a message as a SOAP 1.1 envelope. Parts are emitted in
// sorted order for deterministic wire bytes.
func Marshal(m Message) ([]byte, error) { return appendMessage(nil, m) }

// appendMessage appends m's envelope to b, growing it once to the exact
// size.
func appendMessage(b []byte, m Message) ([]byte, error) {
	if m.Operation == "" {
		return nil, fmt.Errorf("soap: message has no operation")
	}
	keys := make([]string, 0, len(m.Parts))
	size := len(envelopeOpen) + len(bodyOpen) + 2*len(m.Operation) + len("<></>") + len(bodyClose)
	if m.Trace != "" {
		size += len(traceOpen) + len(m.Trace) + len(traceClose)
	}
	for k, v := range m.Parts {
		keys = append(keys, k)
		size += 2*len(k) + len("<></>") + len(v)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !validName(k) {
			return nil, fmt.Errorf("soap: invalid part name %q", k)
		}
	}
	b = slices.Grow(b, size)
	b = append(b, envelopeOpen...)
	if m.Trace != "" {
		b = append(b, traceOpen...)
		b = appendEscaped(b, m.Trace)
		b = append(b, traceClose...)
	}
	b = append(b, bodyOpen...)
	b = append(append(append(b, '<'), m.Operation...), '>')
	for _, k := range keys {
		b = appendElement(b, k, m.Parts[k])
	}
	b = append(append(append(b, "</"...), m.Operation...), '>')
	return append(b, bodyClose...), nil
}

// MarshalFault renders a fault envelope.
func MarshalFault(f *Fault) []byte {
	const open, end = bodyOpen + `<soap:Fault>`, `</soap:Fault>` + bodyClose
	const tags = len("<faultcode></faultcode><faultstring></faultstring><detail></detail>")
	b := make([]byte, 0, len(envelopeOpen)+len(open)+tags+len(f.Code)+len(f.String)+len(f.Detail)+len(end))
	b = append(b, envelopeOpen...)
	b = append(b, open...)
	b = appendElement(b, "faultcode", f.Code)
	b = appendElement(b, "faultstring", f.String)
	if f.Detail != "" {
		b = appendElement(b, "detail", f.Detail)
	}
	return append(b, end...)
}

// Unmarshal reads and parses a SOAP envelope of at most 64 MB into a
// message. A fault body returns a *Fault error.
func Unmarshal(r io.Reader) (Message, error) {
	size := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		size = int64(l.Len())
	}
	b, err := readEnvelope(r, size, maxEnvelopeBytes)
	if err != nil {
		return Message{Parts: map[string]string{}}, fmt.Errorf("soap: reading envelope: %w", err)
	}
	defer envelopes.Put(b)
	return decode(b)
}

// appendElement appends <name>text</name>, escaping the text.
func appendElement(b []byte, name, text string) []byte {
	b = append(append(append(b, '<'), name...), '>')
	b = appendEscaped(b, text)
	return append(append(append(b, "</"...), name...), '>')
}

// escStop marks the bytes appendEscaped cannot copy as they are: the
// ones it escapes and the lead bytes of multi-byte UTF-8, which it checks.
var escStop = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c < 0x20 || c >= utf8.RuneSelf || strings.IndexByte(`"'&<>`, byte(c)) >= 0
	}
	return t
}()

// appendEscaped appends s escaped exactly as xml.EscapeText does —
// quotes, '&', '<', '>', tab, LF and CR as character references,
// invalid UTF-8 and non-XML characters as U+FFFD — copying the runs in
// between whole.
func appendEscaped(b []byte, s string) []byte {
	run := 0
	for i := 0; i < len(s); {
		for i < len(s) && !escStop[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		esc, n := "\uFFFD", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = asciiEscape(c)
		} else {
			var r rune
			if r, n = utf8.DecodeRuneInString(s[i:]); isChar(r) && !(r == utf8.RuneError && n == 1) {
				i += n
				continue
			}
		}
		b = append(append(b, s[run:i]...), esc...)
		i += n
		run = i
	}
	return append(b, s[run:]...)
}

func asciiEscape(c byte) string {
	switch c {
	case '"':
		return "&#34;"
	case '\'':
		return "&#39;"
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '\t':
		return "&#x9;"
	case '\n':
		return "&#xA;"
	case '\r':
		return "&#xD;"
	}
	return "\uFFFD" // the other control bytes are not XML characters
}

// validName reports whether s is usable as an XML element name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		digit := r >= '0' && r <= '9'
		if i == 0 && !alpha {
			return false
		}
		if !alpha && !digit && r != '-' && r != '.' {
			return false
		}
	}
	return !strings.HasPrefix(strings.ToLower(s), "xml")
}
