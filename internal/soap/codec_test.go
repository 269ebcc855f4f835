package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/wire"
)

// thirdPartyEnvelopes are envelope shapes other SOAP stacks send: other
// prefixes, xsi:type attributes, CDATA, comments, character references,
// indentation with CRLF, unknown header blocks, a byte order mark.
var thirdPartyEnvelopes = []string{
	// Axis-style RPC with xsi:type parts and an encodingStyle attribute.
	`<?xml version="1.0" encoding="UTF-8"?>
<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
 <soapenv:Body>
  <ns1:classify soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/" xmlns:ns1="urn:Classifier">
   <dataset xsi:type="xsd:string">@relation r&#xA;@data&#10;1,2</dataset>
   <attribute xsi:type='xsd:string'>Class</attribute>
  </ns1:classify>
 </soapenv:Body>
</soapenv:Envelope>`,
	// .NET-style: byte order mark, CRLF indentation, default namespace.
	"\xEF\xBB\xBF<?xml version=\"1.0\" encoding=\"utf-8\" standalone=\"yes\"?>\r\n" +
		"<s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\">\r\n" +
		"  <s:Body>\r\n    <getOptions xmlns=\"urn:faehim\">\r\n" +
		"      <classifier>J48</classifier>\r\n      <note>line one\r\nline two\rline three</note>\r\n" +
		"    </getOptions>\r\n  </s:Body>\r\n</s:Envelope>\r\n",
	// Unknown header blocks with mustUnderstand, nested content and a trace.
	`<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<SOAP-ENV:Header><wsse:Security SOAP-ENV:mustUnderstand="0" xmlns:wsse="urn:wsse">` +
		`<wsse:UsernameToken><wsse:Username>u</wsse:Username></wsse:UsernameToken></wsse:Security>` +
		`<t:TraceContext xmlns:t="urn:faehim:trace">  0123456789abcdef0123456789abcdef-0123456789abcdef
</t:TraceContext></SOAP-ENV:Header>` +
		`<SOAP-ENV:Body><train><dataset><![CDATA[@relation <r>
@data
a,&b]]></dataset><options/><k>3</k></train></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
	// Comments and processing instructions between and inside parts;
	// entities and text split by markup.
	`<!-- request --><?client name="x"?><Envelope><Body><!-- op --><filter>` +
		`<spec>a &lt; b &amp;&amp; c &gt; d &quot;q&quot; &apos;s&apos;</spec>` +
		`<rows>1<!-- mid -->2<?pi x?>3<![CDATA[4]]></rows>` +
		`<blank></blank><spaced >v</spaced ></filter></Body></Envelope><!-- end -->`,
	// A part with nested elements: only its own text is the value.
	`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body><op>` +
		`<p>head<i>dropped</i>tail</p><q><deep><deeper>x</deeper></deep></q></op></e:Body></e:Envelope>`,
	// A third-party fault with a structured detail.
	`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body><soap:Fault>` +
		`<faultcode>soap:Server</faultcode><faultstring xml:lang="en">Server was unable to process request. ` +
		`&#8594; Value cannot be null.</faultstring><faultactor>urn:x</faultactor>` +
		`<detail><e:info xmlns:e="urn:e">12</e:info> trailing</detail></soap:Fault></soap:Body></soap:Envelope>`,
	// Non-ASCII text, supplementary-plane references and a literal U+FFFD.
	`<Envelope><Body><op><s>naïve ☃ &#x1F600; &#128512; ` + "\uFFFD" + `</s></op></Body></Envelope>`,
}

// sameDecode runs the scanner and the reference on doc and reports a
// mismatch: any input the scanner accepts (including as a fault), the
// reference must accept with a deep-equal message and fault.
func sameDecode(t *testing.T, doc []byte) (accepted bool) {
	t.Helper()
	got, err := Unmarshal(bytes.NewReader(doc))
	gotFault, isFault := err.(*Fault)
	if err != nil && !isFault {
		return false
	}
	want, werr := referenceUnmarshal(bytes.NewReader(doc))
	wantFault, _ := werr.(*Fault)
	if werr != nil && wantFault == nil {
		t.Fatalf("scanner accepted what the reference rejects (%v):\n%q", werr, doc)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotFault, wantFault) {
		t.Fatalf("decodes differ on %q:\n scanner   %#v %#v\n reference %#v %#v", doc, got, gotFault, want, wantFault)
	}
	return true
}

func TestThirdPartyEnvelopes(t *testing.T) {
	for i, doc := range thirdPartyEnvelopes {
		if !sameDecode(t, []byte(doc)) {
			_, err := Unmarshal(strings.NewReader(doc))
			t.Errorf("envelope %d rejected: %v", i, err)
		}
	}
	msg, _ := Unmarshal(strings.NewReader(thirdPartyEnvelopes[1]))
	if msg.Parts["note"] != "line one\nline two\nline three" {
		t.Errorf("CR/CRLF not normalised: %q", msg.Parts["note"])
	}
	msg, _ = Unmarshal(strings.NewReader(thirdPartyEnvelopes[4]))
	if msg.Parts["p"] != "headtail" || msg.Parts["q"] != "" {
		t.Errorf("nested elements not dropped: %q", msg.Parts)
	}
}

func TestTruncatedEnvelopesAreErrors(t *testing.T) {
	payload, err := wire.MarshalBase64(datagen.Weather())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Marshal(Message{Operation: "classifyBatch", Trace: "0123456789abcdef0123456789abcdef-0123456789abcdef",
		Parts: map[string]string{"session": "dms1.eyJ2IjoxfQ", "encoding": wire.Encoding, "payload": payload}})
	if err != nil {
		t.Fatal(err)
	}
	fault := MarshalFault(&Fault{Code: "soap:Client", String: "malformed dmb1 payload", Detail: "wire: <truncated> & short"})
	if _, err := Unmarshal(bytes.NewReader(batch)); err != nil {
		t.Fatalf("whole classifyBatch envelope: %v", err)
	}
	if _, err := Unmarshal(bytes.NewReader(fault)); !errors.As(err, new(*Fault)) {
		t.Fatalf("whole fault envelope: %v", err)
	}
	for _, doc := range [][]byte{batch, fault} {
		for n := 0; n < len(doc); n++ {
			_, err := Unmarshal(bytes.NewReader(doc[:n]))
			var f *Fault
			if err == nil || errors.As(err, &f) {
				t.Fatalf("prefix of %d/%d bytes decoded (err %v)", n, len(doc), err)
			}
		}
	}
}

func TestReadEnvelopeLimit(t *testing.T) {
	body := strings.Repeat("x", 1024)
	for _, tc := range []struct {
		r       io.Reader
		size    int64
		tooLong bool
	}{
		{strings.NewReader(body), -1, false},
		{strings.NewReader(body), 1024, false},
		{strings.NewReader(body), 10, false}, // a short declared length only presizes
		{strings.NewReader(body + "y"), -1, true},
		{strings.NewReader(body + "y"), 10, true},
		{strings.NewReader(""), 1025, true}, // declared over the limit: refused unread
	} {
		b, err := readEnvelope(tc.r, tc.size, 1024)
		if tc.tooLong != errors.Is(err, errTooLarge) || (!tc.tooLong && string(b) != body) {
			t.Errorf("size %d: got %d bytes, err %v", tc.size, len(b), err)
		}
	}
}

func FuzzUnmarshal(f *testing.F) {
	for _, m := range []Message{
		{Operation: "classify", Parts: map[string]string{"dataset": "@relation r\n@data\n1,'a b'\r\n", "attribute": "Class"}},
		{Operation: "op", Trace: "t-1", Parts: map[string]string{"x": "<>&\"' ☃ \t", "empty": ""}},
		{Operation: "ns:op", Parts: nil},
	} {
		b, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(MarshalFault(&Fault{Code: "soap:Server", String: "boom <&>", Detail: "stack\ntrace"}))
	f.Add(MarshalFault(&Fault{Code: "soap:Client", String: ""}))
	for _, doc := range thirdPartyEnvelopes {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		sameDecode(t, doc)
	})
}

func FuzzEscape(f *testing.F) {
	for _, s := range []string{"", "plain", "<a href=\"x\">&amp;</a>", "tab\tnl\ncr\r", "\x00\x1f\x7f", "☃\uFFFD\xff\xfe", "\xef\xbf\xbe", "\xed\xa0\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, []byte(s)); err != nil {
			t.Fatal(err)
		}
		if got := appendEscaped(nil, s); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("escape(%q) = %q, want %q", s, got, want.Bytes())
		}
	})
}

// TestDecodeDoesNotAliasBuffer pins buffer ownership: decode copies
// every part, fault field, trace string and error out of the envelope,
// so the buffer can be recycled (and overwritten by the next request)
// the moment decode returns.
func TestDecodeDoesNotAliasBuffer(t *testing.T) {
	msg := Message{Operation: "classifyBatch", Trace: "00-trace-01",
		Parts: map[string]string{"payload": strings.Repeat("QUJD", 64), "text": "a &amp; <b> ☃"}}
	req, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	fault := &Fault{Code: "soap:Client", String: "bad <input>", Detail: "line 3 & more"}
	for name, env := range map[string][]byte{
		"request":   req,
		"fault":     MarshalFault(fault),
		"malformed": []byte(`<soap:Envelope xmlns:soap="x"><soap:Body><op><a>1</b></op></soap:Body></soap:Envelope>`),
	} {
		want, wantErr := decode(append([]byte(nil), env...))
		buf := append(envelopes.Get(len(env)), env...)
		got, gotErr := decode(buf)
		envelopes.Put(buf)
		for i := range buf {
			buf[i] = 'X'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: message changed when its buffer was overwritten: %+v, want %+v", name, got, want)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Errorf("%s: error changed when its buffer was overwritten: %v, want %v", name, gotErr, wantErr)
		}
	}
}
