package soap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
	"unicode/utf8"

	"repro/internal/bufpool"
)

// maxEnvelopeBytes bounds every envelope this package reads: request
// bodies on the server and replies on the client. Plot PNGs and large
// ARFF documents fit comfortably; runaway bodies do not.
const maxEnvelopeBytes = 64 << 20

// maxPresize caps how much of a declared body length is allocated before
// the bytes arrive, so a lying Content-Length cannot reserve the full cap.
const maxPresize = 4 << 20

// maxDepth bounds element nesting inside a part, header block or fault.
const maxDepth = 256

// maxParts bounds the distinct parts of one message, so a body of tiny
// elements cannot grow the part map far beyond its own size.
const maxParts = 1024

// errTooLarge reports an envelope over the read limit.
var errTooLarge = errors.New("envelope too large")

// envelopes recycles envelope buffers: request bodies once decode has
// copied the parts out, and the server's replies once written. Client
// request bodies are never pooled: net/http may still read (rewind and
// resend) or close them after RoundTrip returns.
var envelopes = bufpool.New(maxPresize)

// readEnvelope reads a whole envelope of at most limit bytes into one
// pooled buffer, which the caller hands back with envelopes.Put once
// nothing aliases it. size is the declared length, or negative when
// unknown; a declared length over the limit fails before anything is
// read.
func readEnvelope(r io.Reader, size, limit int64) ([]byte, error) {
	if size > limit {
		return nil, fmt.Errorf("%w (limit %d bytes)", errTooLarge, limit)
	}
	if size < 0 {
		size = 512
	}
	buf := envelopes.Get(int(min(size, maxPresize) + 1))
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(int64(cap(buf)), limit+1)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			envelopes.Put(buf)
			return nil, fmt.Errorf("%w (limit %d bytes)", errTooLarge, limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			envelopes.Put(buf)
			return nil, err
		}
	}
}

// decoder is a single forward scanner over a buffered envelope. It
// accepts the XML a SOAP 1.1 peer sends — an optional UTF-8 byte order
// mark and XML declaration, namespace prefixes, attributes, comments,
// processing instructions, CDATA sections, the predefined entities and
// character references — and rejects document type declarations (SOAP
// 1.1 §3), undeclared entities, invalid UTF-8, characters outside the
// XML Char range, mismatched end tags and anything after the root.
//
// Character data is decoded in place: every escape is longer than what
// it stands for, so the write index never passes the read index and a
// part's text is collected without a second buffer.
type decoder struct {
	b     []byte
	pos   int
	depth int
}

// tag is a start or end tag; name is the qualified name as written.
type tag struct {
	name, local []byte
	empty       bool
}

const (
	tokEOF = iota
	tokStart
	tokEnd
)

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("soap: malformed envelope: "+format+" at byte %d", append(args, d.pos)...)
}

// decode parses a buffered envelope, overwriting it as text is decoded.
// Everything it returns, errors included, is copied out of b, so b can
// be recycled as soon as it returns.
// Elements are matched by local name. Header children are header
// blocks: TraceContext is read, the rest ignored. Once a Body has been
// opened, every grandchild of the Envelope outside a Header is an
// operation whose children are its parts; a part's value is its own
// character data, with nested elements dropped. A Fault ends decoding:
// the rest of the document is only checked, and the fault is returned
// as the error.
func decode(b []byte) (Message, error) {
	d := &decoder{b: b}
	msg := Message{Parts: map[string]string{}}
	env, err := d.prolog()
	if err != nil {
		return msg, err
	}
	if string(env.local) != "Envelope" {
		return msg, fmt.Errorf("soap: root element %q is not Envelope", env.local)
	}
	var fault *Fault
	inBody := false
	for {
		sec, more, err := d.child(env)
		if err != nil {
			return msg, err
		}
		if !more {
			break
		}
		header := string(sec.local) == "Header"
		inBody = inBody || string(sec.local) == "Body"
		switch {
		case fault == nil && header:
			err = d.header(sec, &msg)
		case fault == nil && inBody:
			fault, err = d.body(sec, &msg)
		default:
			_, err = d.content(sec, false)
		}
		if err != nil {
			return msg, err
		}
	}
	if err := d.misc(); err != nil {
		return msg, err
	}
	if d.pos != len(d.b) {
		return msg, d.errorf("content after the root element")
	}
	if fault != nil {
		return msg, fault
	}
	if msg.Operation == "" {
		return msg, fmt.Errorf("soap: envelope has no operation element")
	}
	return msg, nil
}

func (d *decoder) header(h tag, msg *Message) error {
	for {
		blk, more, err := d.child(h)
		if err != nil || !more {
			return err
		}
		trace := string(blk.local) == "TraceContext"
		v, err := d.content(blk, trace)
		if err != nil {
			return err
		}
		if trace {
			msg.Trace = strings.TrimSpace(string(v))
		}
	}
}

func (d *decoder) body(body tag, msg *Message) (*Fault, error) {
	var fault *Fault
	for {
		op, more, err := d.child(body)
		if err != nil || !more {
			return fault, err
		}
		switch {
		case fault != nil:
			_, err = d.content(op, false)
		case string(op.local) == "Fault":
			fault, err = d.fault(op)
		default:
			msg.Operation = string(op.local)
			err = d.parts(op, msg.Parts)
		}
		if err != nil {
			return nil, err
		}
	}
}

func (d *decoder) parts(op tag, parts map[string]string) error {
	for {
		p, more, err := d.child(op)
		if err != nil || !more {
			return err
		}
		name := string(p.local)
		if _, ok := parts[name]; !ok && len(parts) == maxParts {
			return d.errorf("more than %d parts", maxParts)
		}
		v, err := d.content(p, true)
		if err != nil {
			return err
		}
		parts[name] = string(v)
	}
}

func (d *decoder) fault(ft tag) (*Fault, error) {
	f := &Fault{}
	for {
		c, more, err := d.child(ft)
		if err != nil || !more {
			return f, err
		}
		var dst *string
		switch string(c.local) {
		case "faultcode":
			dst = &f.Code
		case "faultstring":
			dst = &f.String
		case "detail":
			dst = &f.Detail
		}
		v, err := d.content(c, dst != nil)
		if err != nil {
			return nil, err
		}
		if dst != nil {
			*dst = string(v)
		}
	}
}

// child advances to parent's next child element (more == true, its
// start tag consumed) or through parent's end tag (more == false). The
// character data on the way is checked and dropped.
func (d *decoder) child(parent tag) (t tag, more bool, err error) {
	t, _, more, err = d.step(parent, d.pos)
	return t, more, err
}

// content consumes the rest of element t, whose start tag was just
// read, through its end tag. With keep it returns t's own character
// data, decoded in place; nested elements are checked and skipped.
func (d *decoder) content(t tag, keep bool) ([]byte, error) {
	if d.depth++; d.depth > maxDepth {
		return nil, d.errorf("elements nested deeper than %d", maxDepth)
	}
	start := d.pos
	w := start
	for {
		if !keep {
			w = d.pos
		}
		c, w2, more, err := d.step(t, w)
		if err != nil {
			return nil, err
		}
		if !more {
			d.depth--
			return d.b[start:w2], nil
		}
		w = w2
		if _, err := d.content(c, false); err != nil {
			return nil, err
		}
	}
}

// step reads parent's content up to its next child start tag, or
// through its end tag, decoding the character data on the way to d.b[w:].
func (d *decoder) step(parent tag, w int) (tag, int, bool, error) {
	if parent.empty {
		return tag{}, w, false, nil
	}
	kind, t, w, err := d.next(w)
	switch {
	case err != nil:
		return t, w, false, err
	case kind == tokStart:
		return t, w, true, nil
	case kind == tokEOF:
		return t, w, false, d.errorf("unexpected EOF inside <%s>", parent.name)
	case !bytes.Equal(t.name, parent.name):
		return t, w, false, d.errorf("element <%s> closed by </%s>", parent.name, t.name)
	}
	return t, w, false, nil
}

// next decodes character data to d.b[w:] up to the next start or end
// tag, passing over comments and processing instructions and decoding
// CDATA sections as character data.
func (d *decoder) next(w int) (kind int, t tag, _ int, err error) {
	for {
		if w, err = d.text(w, 0, false); err != nil {
			return tokEOF, t, w, err
		}
		rest := d.b[d.pos:]
		switch {
		case len(rest) == 0:
			return tokEOF, t, w, nil
		case hasPrefix(rest, "</"):
			t, err = d.endTag()
			return tokEnd, t, w, err
		case hasPrefix(rest, "<![CDATA["):
			d.pos += len("<![CDATA[")
			w, err = d.text(w, 0, true)
		case hasPrefix(rest, "<!--"):
			err = d.comment()
		case hasPrefix(rest, "<?"):
			err = d.procInst()
		case hasPrefix(rest, "<!"):
			err = d.errorf("markup declarations (DTDs) are not allowed")
		default:
			t, err = d.startTag()
			return tokStart, t, w, err
		}
		if err != nil {
			return tokEOF, t, w, err
		}
	}
}

// prolog reads up to and including the root start tag.
func (d *decoder) prolog() (tag, error) {
	if hasPrefix(d.b, "\xEF\xBB\xBF") {
		d.pos = 3
	}
	if rest := d.b[d.pos:]; hasPrefix(rest, "<?xml") && len(rest) > 5 && isSpace(rest[5]) {
		decl := xmlDecl.Find(rest[:min(len(rest), 256)])
		if decl == nil {
			return tag{}, d.errorf("unsupported XML declaration (want version 1.0, UTF-8)")
		}
		d.pos += len(decl)
	}
	if err := d.misc(); err != nil {
		return tag{}, err
	}
	rest := d.b[d.pos:]
	switch {
	case len(rest) == 0:
		return tag{}, d.errorf("no root element")
	case hasPrefix(rest, "<!"):
		return tag{}, d.errorf("markup declarations (DTDs) are not allowed")
	case rest[0] != '<' || hasPrefix(rest, "</"):
		return tag{}, d.errorf("content before the root element")
	}
	return d.startTag()
}

// misc skips the whitespace, comments and processing instructions
// allowed outside the root element.
func (d *decoder) misc() error {
	for {
		d.space()
		var err error
		switch rest := d.b[d.pos:]; {
		case hasPrefix(rest, "<!--"):
			err = d.comment()
		case hasPrefix(rest, "<?"):
			err = d.procInst()
		default:
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// xmlDecl is the XML declaration accepted at the start of an envelope:
// version 1.0, then optionally a UTF-8 encoding and a standalone flag.
var xmlDecl = regexp.MustCompile(`^<\?xml[ \t\r\n]+version[ \t\r\n]*=[ \t\r\n]*("1\.0"|'1\.0')` +
	`([ \t\r\n]+encoding[ \t\r\n]*=[ \t\r\n]*("(?i:utf-8)"|'(?i:utf-8)'))?` +
	`([ \t\r\n]+standalone[ \t\r\n]*=[ \t\r\n]*("(yes|no)"|'(yes|no)'))?[ \t\r\n]*\?>`)

// comment skips "<!--...-->"; "--" may not occur inside.
func (d *decoder) comment() error {
	d.pos += len("<!--")
	i := bytes.Index(d.b[d.pos:], []byte("--"))
	if i < 0 || !hasPrefix(d.b[d.pos+i:], "-->") {
		return d.errorf("malformed comment")
	}
	d.pos += i + len("-->")
	return nil
}

// procInst skips a processing instruction; "xml" (any case) is reserved
// for the declaration at the very start.
func (d *decoder) procInst() error {
	d.pos += len("<?")
	target, _, ok := d.qname()
	if !ok || strings.EqualFold(string(target), "xml") {
		return d.errorf("bad processing instruction target")
	}
	if !d.space() && !hasPrefix(d.b[d.pos:], "?>") {
		return d.errorf("bad processing instruction target")
	}
	i := bytes.Index(d.b[d.pos:], []byte("?>"))
	if i < 0 {
		return d.errorf("unterminated processing instruction")
	}
	d.pos += i + len("?>")
	return nil
}

// startTag reads "<name attr='v' ...>" or its "/>" form.
func (d *decoder) startTag() (tag, error) {
	d.pos++
	var t tag
	var ok bool
	if t.name, t.local, ok = d.qname(); !ok {
		return t, d.errorf("expected element name")
	}
	for {
		sp := d.space()
		rest := d.b[d.pos:]
		switch {
		case len(rest) == 0:
			return t, d.errorf("unexpected EOF in <%s>", t.name)
		case rest[0] == '>':
			d.pos++
			return t, nil
		case hasPrefix(rest, "/>"):
			d.pos += 2
			t.empty = true
			return t, nil
		case !sp:
			return t, d.errorf("malformed start tag <%s>", t.name)
		}
		if err := d.attr(); err != nil {
			return t, err
		}
	}
}

// attr checks one name="value" attribute; the value is decoded in place
// and dropped.
func (d *decoder) attr() error {
	if _, _, ok := d.qname(); !ok {
		return d.errorf("expected attribute name")
	}
	d.space()
	if !hasPrefix(d.b[d.pos:], "=") {
		return d.errorf("attribute without value")
	}
	d.pos++
	d.space()
	if d.pos == len(d.b) || (d.b[d.pos] != '"' && d.b[d.pos] != '\'') {
		return d.errorf("unquoted attribute value")
	}
	q := d.b[d.pos]
	d.pos++
	_, err := d.text(d.pos, q, false)
	return err
}

// endTag reads "</name>".
func (d *decoder) endTag() (tag, error) {
	d.pos += len("</")
	var t tag
	var ok bool
	if t.name, t.local, ok = d.qname(); !ok {
		return t, d.errorf("expected element name after </")
	}
	d.space()
	if !hasPrefix(d.b[d.pos:], ">") {
		return t, d.errorf("malformed end tag </%s>", t.name)
	}
	d.pos++
	return t, nil
}

// qname scans an ASCII name with at most one namespace prefix.
func (d *decoder) qname() (name, local []byte, ok bool) {
	start, localStart := d.pos, d.pos
	i := start
	for {
		if i == len(d.b) || !isNameStart(d.b[i]) {
			return nil, nil, false
		}
		for i++; i < len(d.b) && (isNameStart(d.b[i]) || isNameChar(d.b[i])); i++ {
		}
		if localStart != start || i == len(d.b) || d.b[i] != ':' {
			break
		}
		i++
		localStart = i
	}
	d.pos = i
	return d.b[start:i], d.b[localStart:i], true
}

func isNameStart(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }
func isNameChar(c byte) bool  { return '0' <= c && c <= '9' || c == '.' || c == '-' }
func isSpace(c byte) bool     { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func (d *decoder) space() bool {
	start := d.pos
	for d.pos < len(d.b) && isSpace(d.b[d.pos]) {
		d.pos++
	}
	return d.pos > start
}

func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// isChar reports whether r is in the XML 1.0 Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= utf8.MaxRune
}

// textStop marks the bytes that end a plain run of character data:
// markup and references, CR (normalised to LF), ']' (for "]]>"),
// control bytes, the lead bytes of multi-byte UTF-8 and the quotes that
// close attribute values. Every other byte is a valid character copied
// as it is.
var textStop = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf
	}
	for _, c := range []byte("<&\r]\"'") {
		t[c] = true
	}
	return t
}()

// text decodes character data from d.pos to d.b[w:]. In element
// content it stops before '<' or at EOF; with a quote it reads an
// attribute value through its closing quote; in a CDATA section every
// character is literal up to "]]>", which it consumes.
func (d *decoder) text(w int, quote byte, cdata bool) (int, error) {
	b := d.b
	if cdata {
		n := bytes.Index(b[d.pos:], []byte("]]>"))
		if n < 0 {
			return w, d.errorf("unterminated CDATA section")
		}
		b = b[:d.pos+n]
	}
	i, run := d.pos, d.pos
scan:
	for {
		for i < len(b) && !textStop[b[i]] {
			i++
		}
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '\r':
			w = move(b, w, run, i)
			b[w] = '\n'
			w++
			if i++; i < len(b) && b[i] == '\n' {
				i++
			}
			run = i
		case c < 0x20 || c >= utf8.RuneSelf:
			d.pos = i
			n, err := d.char()
			if err != nil {
				return w, err
			}
			i += n
		case cdata:
			i++
		case c == '<':
			break scan
		case c == '"' || c == '\'':
			if c == quote {
				break scan
			}
			i++
		case c == ']':
			if quote == 0 && hasPrefix(b[i:], "]]>") {
				d.pos = i
				return w, d.errorf("unescaped ]]> in text")
			}
			i++
		default: // '&'
			w = move(b, w, run, i)
			d.pos = i
			var err error
			if w, err = d.reference(w); err != nil {
				return w, err
			}
			i, run = d.pos, d.pos
		}
	}
	w = move(b, w, run, i)
	d.pos = i
	switch {
	case cdata:
		d.pos += len("]]>")
	case quote != 0:
		if i == len(b) || b[i] != quote {
			return w, d.errorf("unterminated attribute value")
		}
		d.pos++
	}
	return w, nil
}

// char checks the character at d.pos, a control byte or the start of a
// multi-byte sequence, and returns its length.
func (d *decoder) char() (int, error) {
	r, n := utf8.DecodeRune(d.b[d.pos:])
	if r == utf8.RuneError && n == 1 {
		return 0, d.errorf("invalid UTF-8")
	}
	if !isChar(r) {
		return 0, d.errorf("illegal character %U", r)
	}
	return n, nil
}

var entities = [...]struct {
	name []byte
	c    byte
}{{[]byte("lt;"), '<'}, {[]byte("gt;"), '>'}, {[]byte("amp;"), '&'}, {[]byte("apos;"), '\''}, {[]byte("quot;"), '"'}}

// reference decodes the entity or character reference at d.pos to d.b[w:].
func (d *decoder) reference(w int) (int, error) {
	ref := d.b[d.pos+1:]
	if !hasPrefix(ref, "#") {
		for _, e := range entities {
			if bytes.HasPrefix(ref, e.name) {
				d.b[w] = e.c
				d.pos += 1 + len(e.name)
				return w + 1, nil
			}
		}
		return w, d.errorf("undefined entity reference")
	}
	i, base := 1, rune(10)
	if hasPrefix(ref[1:], "x") {
		i, base = 2, 16
	}
	start := i
	var r rune
	for ; i < len(ref); i++ {
		v := digit(ref[i])
		if v >= base {
			break
		}
		if r = r*base + v; r > utf8.MaxRune {
			return w, d.errorf("character reference out of range")
		}
	}
	if i == start || !hasPrefix(ref[i:], ";") || !isChar(r) {
		return w, d.errorf("invalid character reference")
	}
	d.pos += 1 + i + 1
	return w + utf8.EncodeRune(d.b[w:], r), nil
}

// digit returns c's value as a hexadecimal digit, or 16 if it is none.
func digit(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// move shifts the pending run b[from:to] down to b[w:] and returns the
// new write index.
func move(b []byte, w, from, to int) int {
	if w != from {
		copy(b[w:], b[from:to])
	}
	return w + to - from
}
