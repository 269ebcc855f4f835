package bufpool

import "testing"

func TestGetPut(t *testing.T) {
	p := New(64)
	b := p.Get(10)
	if len(b) != 0 || cap(b) < 10 {
		t.Fatalf("Get(10) = len %d cap %d", len(b), cap(b))
	}
	p.Put(append(b, "abc"...))
	if b := p.Get(5); len(b) != 0 || cap(b) < 5 {
		t.Fatalf("Get(5) after Put = len %d cap %d", len(b), cap(b))
	}
	if b := p.Get(1000); cap(b) < 1000 {
		t.Fatalf("Get(1000) = cap %d", cap(b))
	}
}

// TestPutDropsOversized checks the cap: a buffer larger than the pool's
// maximum is never handed out again.
func TestPutDropsOversized(t *testing.T) {
	p := New(64)
	big := make([]byte, 0, 128)
	for i := 0; i < 10; i++ {
		p.Put(big)
		if b := p.Get(0); cap(b) == 128 {
			t.Fatal("oversized buffer came back from the pool")
		}
	}
}
