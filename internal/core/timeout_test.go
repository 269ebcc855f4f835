package core

import (
	"errors"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServerDropsStalledHeader opens a connection, sends half a request
// header and stalls: the deployment must close the connection once
// readHeaderTimeout passes, and keep serving everyone else.
func TestServerDropsStalledHeader(t *testing.T) {
	t.Parallel()
	d, err := Deploy("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn, err := net.Dial("tcp", strings.TrimPrefix(d.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	began := time.Now()
	if _, err := conn.Write([]byte("POST /services/Classifier HTTP/1.1\r\nHost: dm\r\nContent-Type: text/x")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(began.Add(readHeaderTimeout + 5*time.Second))
	n, err := conn.Read(make([]byte, 512))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled header", time.Since(began))
	}
	if err == nil || n != 0 {
		t.Fatalf("read %d bytes, err %v; want the connection closed", n, err)
	}
	if waited := time.Since(began); waited < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
	resp, err := http.Get(d.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the stalled peer: HTTP %d", resp.StatusCode)
	}
}
