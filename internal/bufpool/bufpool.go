// Package bufpool recycles the scratch byte buffers of the batch data
// plane: an envelope read off the network, a base64 block being decoded,
// a block or reply being encoded. A buffer goes back only once nothing
// aliases it, and one larger than the pool's cap is dropped instead, so
// a single huge request cannot pin its memory for the life of the
// process.
package bufpool

import "sync"

// Pool is a sync.Pool of byte buffers with a capacity cap.
type Pool struct {
	p   sync.Pool // of *[]byte
	max int
}

// New returns a pool that keeps buffers of at most max bytes capacity.
func New(max int) *Pool { return &Pool{max: max} }

// Get returns an empty buffer with room for at least n bytes.
func (p *Pool) Get(n int) []byte {
	if bp, ok := p.p.Get().(*[]byte); ok && cap(*bp) >= n {
		return (*bp)[:0]
	}
	return make([]byte, 0, n)
}

// Put hands b back for reuse. The caller must not touch b afterwards.
func (p *Pool) Put(b []byte) {
	if cap(b) == 0 || cap(b) > p.max {
		return
	}
	p.p.Put(&b)
}
