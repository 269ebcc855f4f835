package soap

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// TestClientRetriesRetryableFaults: with WithResilience, a soap:Server
// fault retries until the budget runs out; the server recovering mid-way
// turns the call into a success.
func TestClientRetriesRetryableFaults(t *testing.T) {
	var calls atomic.Int64
	ep := NewEndpoint("Flaky")
	ep.Handle("work", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		if calls.Add(1) < 3 {
			return nil, &Fault{Code: "soap:Server", String: "warming up"}
		}
		return map[string]string{"ok": "yes"}, nil
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	reg := obs.NewRegistry()
	c := NewClient(WithObserver(reg),
		WithResilience(&resilience.Policy{MaxAttempts: 3, BackoffBase: time.Millisecond}))
	out, err := c.CallContext(context.Background(), srv.URL, "work", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["ok"] != "yes" {
		t.Fatalf("out = %v", out)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if got := reg.Counter("soap_client_retries_total", "op=work").Value(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

// soap:Client faults mean the request itself is wrong — retrying cannot
// help, so the client must not.
func TestClientDoesNotRetryClientFaults(t *testing.T) {
	var calls atomic.Int64
	ep := NewEndpoint("Strict")
	ep.Handle("work", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		calls.Add(1)
		return nil, &Fault{Code: "soap:Client", String: "bad request"}
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	c := NewClient(WithObserver(obs.NewRegistry()),
		WithResilience(&resilience.Policy{MaxAttempts: 5, BackoffBase: time.Millisecond}))
	_, err := c.CallContext(context.Background(), srv.URL, "work", nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != "soap:Client" {
		t.Fatalf("err = %v, want soap:Client fault", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("client fault retried: %d calls", got)
	}
}

// TestClientBreakerFailsFast: once the endpoint's breaker opens, calls
// short-circuit with resilience.ErrOpen instead of hitting the network.
func TestClientBreakerFailsFast(t *testing.T) {
	var calls atomic.Int64
	ep := NewEndpoint("Down")
	ep.Handle("work", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		calls.Add(1)
		return nil, &Fault{Code: "soap:Server", String: "down"}
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	reg := obs.NewRegistry()
	set := resilience.NewBreakerSet(
		resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute}, reg)
	c := NewClient(WithObserver(reg), WithBreakers(set))
	for i := 0; i < 2; i++ {
		if _, err := c.CallContext(context.Background(), srv.URL, "work", nil); err == nil {
			t.Fatal("down service succeeded")
		}
	}
	_, err := c.CallContext(context.Background(), srv.URL, "work", nil)
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("post-trip error = %v, want ErrOpen", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("open breaker let a call through: %d server calls", got)
	}
	if got := reg.Counter("resilience_breaker_opens_total", "endpoint="+srv.URL).Value(); got != 1 {
		t.Fatalf("opens counter = %d, want 1", got)
	}
}

// TestServerRecoversHandlerPanic: a panicking handler must produce a
// soap:Server fault (and a panic counter), not kill the connection — the
// hosting process co-hosts every other service.
func TestServerRecoversHandlerPanic(t *testing.T) {
	reg := obs.NewRegistry()
	ep := NewEndpoint("Fragile")
	ep.Observer = reg
	ep.Handle("boom", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		panic("nil dereference, probably")
	})
	ep.Handle("fine", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		return map[string]string{"ok": "yes"}, nil
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	_, err := CallContext(context.Background(), srv.URL, "boom", nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != "soap:Server" {
		t.Fatalf("panic surfaced as %v, want soap:Server fault", err)
	}
	if !strings.Contains(f.Detail, "nil dereference") {
		t.Fatalf("fault detail %q lost the panic value", f.Detail)
	}
	if got := reg.Counter("soap_server_panics_total", "service=Fragile", "op=boom").Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	// The endpoint keeps serving after the panic.
	out, err := CallContext(context.Background(), srv.URL, "fine", nil)
	if err != nil || out["ok"] != "yes" {
		t.Fatalf("endpoint broken after panic: out=%v err=%v", out, err)
	}
}

// TestServerPropagatesAbortPanic: http.ErrAbortHandler is the sanctioned
// abort signal (chaos drop injection relies on it) and must pass through.
func TestServerPropagatesAbortPanic(t *testing.T) {
	ep := NewEndpoint("Aborter")
	ep.Handle("drop", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		panic(http.ErrAbortHandler)
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	_, err := CallContext(context.Background(), srv.URL, "drop", nil)
	if err == nil {
		t.Fatal("aborted call succeeded")
	}
	var f *Fault
	if errors.As(err, &f) {
		t.Fatalf("abort produced a fault envelope (%v), want a transport error", f)
	}
}

// An envelope over maxEnvelopeBytes is refused with 413 and a
// soap:Client fault, from its declared length, before any of it is read
// or decoded.
func TestEndpointRejectsOversizedRequest(t *testing.T) {
	var calls atomic.Int64
	ep := NewEndpoint("Echo")
	ep.Handle("echo", func(ctx context.Context, parts map[string]string) (map[string]string, error) {
		calls.Add(1)
		return parts, nil
	})
	srv := httptest.NewServer(ep)
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: soap\r\nContent-Type: text/xml\r\nContent-Length: %d\r\n\r\n<soap:Envelope>",
		maxEnvelopeBytes+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	_, err = Unmarshal(resp.Body)
	var f *Fault
	if !errors.As(err, &f) || f.Code != "soap:Client" || !strings.Contains(f.Detail, fmt.Sprint(maxEnvelopeBytes)) {
		t.Fatalf("reply = %v, want a soap:Client fault naming the limit", err)
	}
	if calls.Load() != 0 {
		t.Fatal("handler ran for an oversized request")
	}
}

// A reply over maxEnvelopeBytes fails with an error naming the limit,
// and is not retried: the same call would get the same reply.
func TestClientRejectsOversizedReply(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Length", fmt.Sprint(maxEnvelopeBytes+1))
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	c := NewClient(WithResilience(&resilience.Policy{MaxAttempts: 3, BackoffBase: time.Millisecond}))
	_, err := c.CallContext(context.Background(), srv.URL, "op", nil)
	if !errors.Is(err, errTooLarge) || !strings.Contains(err.Error(), fmt.Sprint(maxEnvelopeBytes)) {
		t.Fatalf("error = %v, want the envelope limit", err)
	}
	if resilience.ClassifyErr(err) != resilience.Permanent {
		t.Fatalf("oversized reply classified %v, want permanent", resilience.ClassifyErr(err))
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
}
