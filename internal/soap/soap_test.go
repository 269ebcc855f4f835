package soap

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	msg := Message{Operation: "classify", Parts: map[string]string{
		"dataset":   "@relation r\n@data\n",
		"attribute": "Class",
		"weird":     "<>&\"' and unicode ☃",
	}}
	b, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Operation != "classify" {
		t.Fatalf("operation = %q", got.Operation)
	}
	for k, v := range msg.Parts {
		if got.Parts[k] != v {
			t.Fatalf("part %q: %q != %q", k, got.Parts[k], v)
		}
	}
}

func TestMarshalRejectsBadNames(t *testing.T) {
	if _, err := Marshal(Message{Operation: ""}); err == nil {
		t.Fatal("empty operation accepted")
	}
	if _, err := Marshal(Message{Operation: "op", Parts: map[string]string{"bad name": "v"}}); err == nil {
		t.Fatal("part name with space accepted")
	}
	if _, err := Marshal(Message{Operation: "op", Parts: map[string]string{"1bad": "v"}}); err == nil {
		t.Fatal("digit-leading part name accepted")
	}
	if _, err := Marshal(Message{Operation: "op", Parts: map[string]string{"xmlish": "v"}}); err == nil {
		t.Fatal("xml-prefixed part name accepted")
	}
}

func TestUnmarshalFault(t *testing.T) {
	f := &Fault{Code: "soap:Server", String: "boom", Detail: "stack"}
	_, err := Unmarshal(strings.NewReader(string(MarshalFault(f))))
	got, ok := err.(*Fault)
	if !ok {
		t.Fatalf("error = %v, want *Fault", err)
	}
	if got.Code != "soap:Server" || got.String != "boom" || got.Detail != "stack" {
		t.Fatalf("fault = %+v", got)
	}
	if !strings.Contains(got.Error(), "boom") {
		t.Fatalf("Error() = %q", got.Error())
	}
	// A code with markup characters is escaped, not spliced in raw.
	f = &Fault{Code: "app:Err<1>&2", String: "x"}
	if _, err := Unmarshal(strings.NewReader(string(MarshalFault(f)))); !reflect.DeepEqual(err, f) {
		t.Fatalf("fault with code %q = %#v", f.Code, err)
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	ok := `<Envelope><Body><op><p>v</p></op></Body></Envelope>`
	var manyParts string
	for i := 0; i <= maxParts; i++ {
		manyParts += fmt.Sprintf("<p%d/>", i)
	}
	for _, doc := range []string{
		"",
		"<notsoap/>",
		"<Envelope><Body></Body></Envelope>", // no operation
		"<Envelope><Body><op><unclosed></op></Body></Envelope>",
		`<!DOCTYPE Envelope [<!ENTITY x "y">]>` + ok,
		`<Envelope><!DOCTYPE x><Body><op/></Body></Envelope>`,
		`<Envelope><Body><op><p>&x;</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p>&amp</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p>&#xD800;</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p>&#0;</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p>&#x110000;</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p>&#X41;</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p>a]]>b</p></op></Body></Envelope>`,
		"<Envelope><Body><op><p>\x01</p></op></Body></Envelope>",
		"<Envelope><Body><op><p>\xff</p></op></Body></Envelope>",
		"<Envelope><Body><op><p>\xef\xbf\xbe</p></op></Body></Envelope>",
		"<Envelope><Body><op><p><![CDATA[\x00]]></p></op></Body></Envelope>",
		`<Envelope><Body><op><p><![CDATA[open</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p>v</q></op></Body></Envelope>`,
		`<a:Envelope><Body><op/></Body></b:Envelope>`,
		`<Envelope><Body><op><p a=v>x</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p a="<">x</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p a>x</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p a="1"b="2">x</p></op></Body></Envelope>`,
		`<Envelope><Body><op><p:q:r>x</p:q:r></op></Body></Envelope>`,
		`<Envelope><Body><op><!-- a -- b --></op></Body></Envelope>`,
		`<Envelope><Body><op><?xml version="1.0"?></op></Body></Envelope>`,
		`<?xml version="1.1"?>` + ok,
		`<?xml version="1.0" encoding="ISO-8859-1"?>` + ok,
		`<?xml encoding="UTF-8"?>` + ok,
		ok + ok,
		ok + "trailing",
		"text" + ok,
		`<![CDATA[x]]>` + ok,
		`<Envelope><Body><op>` + manyParts + `</op></Body></Envelope>`,
		`<Envelope><Body><op><p>` + strings.Repeat("<a>", maxDepth+1) + strings.Repeat("</a>", maxDepth+1) + `</p></op></Body></Envelope>`,
	} {
		if _, err := Unmarshal(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(val1, val2 string) bool {
		// Strip characters XML cannot carry at all (control chars).
		clean := func(s string) string {
			var b strings.Builder
			for _, r := range s {
				if r == 0x9 || r == 0xA || r == 0xD || (r >= 0x20 && r != 0xFFFE && r != 0xFFFF) {
					b.WriteRune(r)
				}
			}
			return b.String()
		}
		msg := Message{Operation: "op", Parts: map[string]string{
			"a": clean(val1), "b": clean(val2),
		}}
		b, err := Marshal(msg)
		if err != nil {
			return false
		}
		// The wire bytes are the encoding/xml reference's, and both
		// decoders read them back alike.
		if ref, err := referenceMarshal(msg); err != nil || !bytes.Equal(b, ref) {
			t.Errorf("Marshal differs from the reference:\n%q\n%q", b, ref)
			return false
		}
		got, err := Unmarshal(strings.NewReader(string(b)))
		if err != nil {
			return false
		}
		if want, err := referenceUnmarshal(bytes.NewReader(b)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("decoders differ on %q: %#v vs %#v (%v)", b, got, want, err)
			return false
		}
		// XML normalises CR to LF; accept that.
		norm := func(s string) string { return strings.ReplaceAll(s, "\r", "\n") }
		return norm(got.Parts["a"]) == norm(msg.Parts["a"]) &&
			norm(got.Parts["b"]) == norm(msg.Parts["b"])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newTestEndpoint(t *testing.T) (*Endpoint, *httptest.Server) {
	t.Helper()
	ep := NewEndpoint("Echo")
	ep.Handle("echo", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		out := map[string]string{}
		for k, v := range parts {
			out[k] = v + v
		}
		return out, nil
	})
	ep.Handle("fail", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	ep.Handle("clientFault", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		return nil, &Fault{Code: "soap:Client", String: "you did it wrong"}
	})
	srv := httptest.NewServer(ep)
	t.Cleanup(srv.Close)
	return ep, srv
}

func TestClientServerRoundTrip(t *testing.T) {
	_, srv := newTestEndpoint(t)
	out, err := CallContext(context.Background(), srv.URL, "echo", map[string]string{"x": "ab"})
	if err != nil {
		t.Fatal(err)
	}
	if out["x"] != "abab" {
		t.Fatalf("echo returned %v", out)
	}
}

func TestServerFaults(t *testing.T) {
	_, srv := newTestEndpoint(t)
	_, err := CallContext(context.Background(), srv.URL, "fail", nil)
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("error = %v, want fault", err)
	}
	if f.Code != "soap:Server" || !strings.Contains(f.String, "deliberate") {
		t.Fatalf("fault = %+v", f)
	}
	_, err = CallContext(context.Background(), srv.URL, "clientFault", nil)
	f, ok = err.(*Fault)
	if !ok || f.Code != "soap:Client" {
		t.Fatalf("client fault = %v", err)
	}
	// Unknown operation.
	_, err = CallContext(context.Background(), srv.URL, "nonsense", nil)
	if f, ok = err.(*Fault); !ok || !strings.Contains(f.String, "no operation") {
		t.Fatalf("unknown-op error = %v", err)
	}
}

func TestEndpointRejectsGET(t *testing.T) {
	_, srv := newTestEndpoint(t)
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

func TestEndpointOperations(t *testing.T) {
	ep, _ := newTestEndpoint(t)
	ops := ep.Operations()
	if len(ops) != 3 || ops[0] != "clientFault" {
		t.Fatalf("operations = %v", ops)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	ep.Handle("echo", nil)
}

func TestCallAgainstDeadServer(t *testing.T) {
	if _, err := CallContext(context.Background(), "http://127.0.0.1:1/none", "op", nil); err == nil {
		t.Fatal("call to dead server succeeded")
	}
}
