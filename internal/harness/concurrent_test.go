package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/store"
)

// parked is a builder that reports when it starts and then blocks until
// the test hands it the outcome to return.
type parked struct {
	started chan struct{}
	outcome chan error
	c       classify.Classifier
}

func newParked() *parked {
	return &parked{started: make(chan struct{}), outcome: make(chan error), c: classify.NewJ48()}
}

func (p *parked) build() (classify.Classifier, error) {
	close(p.started)
	if err := <-p.outcome; err != nil {
		return nil, err
	}
	return p.c, nil
}

type acquired struct {
	c   classify.Classifier
	err error
}

// acquireAsync runs Acquire on its own goroutine and delivers the result.
func acquireAsync(b *CachedBackend, key string, build Builder) <-chan acquired {
	ch := make(chan acquired, 1)
	go func() {
		c, err := b.Acquire(key, build)
		ch <- acquired{c, err}
	}()
	return ch
}

// recv fails the test if ch does not deliver promptly — the symptom of an
// Acquire queued behind an unrelated load.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: blocked", what)
	}
	var zero T
	return zero
}

// waitJoined returns once n callers have joined an in-flight load, so a
// parked leader is only released after its followers are waiting on it.
func waitJoined(t *testing.T, reg *obs.Registry, n int64) {
	t.Helper()
	shared := reg.Counter("harness_cache_shared_total")
	deadline := time.Now().Add(10 * time.Second)
	for shared.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d followers joined the load", shared.Value(), n)
		}
		runtime.Gosched()
	}
}

func mustNotBuild(t *testing.T) Builder {
	return func() (classify.Classifier, error) {
		t.Error("follower ran its own builder")
		return nil, errors.New("unexpected build")
	}
}

func TestParkedBuildDoesNotBlockOtherKeys(t *testing.T) {
	b := NewCachedBackend(4)
	b.Obs = obs.NewRegistry()
	warm, err := b.Acquire("b", func() (classify.Classifier, error) { return classify.NewJ48(), nil })
	if err != nil {
		t.Fatal(err)
	}
	p := newParked()
	slow := acquireAsync(b, "a", p.build)
	<-p.started

	// While "a" trains, a hit on "b" and a miss on "c" both complete.
	hit := recv(t, acquireAsync(b, "b", nil), "hit on b")
	if hit.err != nil || hit.c != warm {
		t.Fatalf("hit on b: %v %v", hit.c, hit.err)
	}
	miss := recv(t, acquireAsync(b, "c", func() (classify.Classifier, error) { return classify.NewJ48(), nil }), "miss on c")
	if miss.err != nil {
		t.Fatal(miss.err)
	}

	p.outcome <- nil
	if got := recv(t, slow, "parked build"); got.err != nil || got.c != p.c {
		t.Fatalf("parked build: %v %v", got.c, got.err)
	}
	if b.Len() != 3 || b.Builds() != 3 {
		t.Fatalf("len=%d builds=%d, want 3 and 3", b.Len(), b.Builds())
	}
}

func TestConcurrentMissesShareOneBuild(t *testing.T) {
	const n = 16
	reg := obs.NewRegistry()
	b := NewCachedBackend(4)
	b.Obs = reg
	p := newParked()
	leader := acquireAsync(b, "k", p.build)
	<-p.started
	followers := make([]<-chan acquired, n-1)
	for i := range followers {
		followers[i] = acquireAsync(b, "k", mustNotBuild(t))
	}
	waitJoined(t, reg, n-1)
	p.outcome <- nil
	for i, ch := range append(followers, leader) {
		if got := recv(t, ch, "acquire"); got.err != nil || got.c != p.c {
			t.Fatalf("caller %d: got %v %v, want the leader's instance", i, got.c, got.err)
		}
	}
	if b.Builds() != 1 || reg.Counter("harness_cache_misses_total").Value() != 1 {
		t.Fatalf("builds=%d misses=%d, want 1 and 1", b.Builds(),
			reg.Counter("harness_cache_misses_total").Value())
	}
}

func TestConcurrentMissesShareOneRestore(t *testing.T) {
	const n = 16
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	trained, err := j48Builder(t, nil)()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := model.Marshal(trained)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", store.Meta{Algorithm: trained.Name(), Kind: "classifier"}, blob); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	b := NewCachedBackend(4)
	b.Durable = st
	b.Obs = reg

	start := make(chan struct{})
	results := make([]acquired, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			c, err := b.Acquire("k", mustNotBuild(t))
			results[i] = acquired{c, err}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, r := range results {
		if r.err != nil || r.c != results[0].c {
			t.Fatalf("caller %d: got %v %v, want one shared instance", i, r.c, r.err)
		}
	}
	if got := reg.Counter("harness_store_restores_total").Value(); got != 1 {
		t.Fatalf("restores = %d, want 1", got)
	}
	if b.Builds() != 0 {
		t.Fatalf("builds = %d, want 0", b.Builds())
	}
}

func TestConcurrentFollowerOutlivesCancelledLeader(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewCachedBackend(4)
	b.Obs = reg
	p := newParked()
	leader := acquireAsync(b, "k", p.build)
	<-p.started
	var ownBuilds atomic.Int64
	own := classify.NewJ48()
	follower := acquireAsync(b, "k", func() (classify.Classifier, error) {
		ownBuilds.Add(1)
		return own, nil
	})
	waitJoined(t, reg, 1)
	p.outcome <- context.Canceled

	if got := recv(t, leader, "leader"); !errors.Is(got.err, context.Canceled) {
		t.Fatalf("leader: err = %v, want context.Canceled", got.err)
	}
	got := recv(t, follower, "follower")
	if got.err != nil || got.c != own {
		t.Fatalf("follower: got %v %v, want its own rebuild", got.c, got.err)
	}
	if ownBuilds.Load() != 1 || b.Builds() != 1 || b.Len() != 1 {
		t.Fatalf("follower builds=%d builds=%d len=%d, want 1, 1, 1",
			ownBuilds.Load(), b.Builds(), b.Len())
	}
}

func TestSharedBuildErrorIsNotCached(t *testing.T) {
	const n = 4
	reg := obs.NewRegistry()
	b := NewCachedBackend(4)
	b.Obs = reg
	p := newParked()
	leader := acquireAsync(b, "k", p.build)
	<-p.started
	followers := make([]<-chan acquired, n-1)
	for i := range followers {
		followers[i] = acquireAsync(b, "k", mustNotBuild(t))
	}
	waitJoined(t, reg, n-1)
	boom := errors.New("boom")
	p.outcome <- boom
	for i, ch := range append(followers, leader) {
		if got := recv(t, ch, "acquire"); !errors.Is(got.err, boom) || got.c != nil {
			t.Fatalf("caller %d: got %v %v, want the build error", i, got.c, got.err)
		}
	}
	if b.Len() != 0 || b.Builds() != 0 {
		t.Fatalf("failed build pooled: len=%d builds=%d", b.Len(), b.Builds())
	}
	// The next Acquire retries the build.
	c, err := b.Acquire("k", func() (classify.Classifier, error) { return classify.NewJ48(), nil })
	if err != nil || c == nil || b.Builds() != 1 {
		t.Fatalf("retry: %v %v builds=%d", c, err, b.Builds())
	}
}

// A builder that panics must still release the callers waiting on its
// load and leave the key retryable; otherwise every later Acquire of the
// key would wait forever.
func TestSharedBuildPanicReleasesFollowers(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewCachedBackend(4)
	b.Obs = reg
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _ = b.Acquire("k", func() (classify.Classifier, error) {
			close(started)
			<-release
			panic("builder bug")
		})
	}()
	<-started
	follower := acquireAsync(b, "k", mustNotBuild(t))
	waitJoined(t, reg, 1)
	close(release)
	if v := recv(t, panicked, "leader"); v != "builder bug" {
		t.Fatalf("leader recovered %v, want the builder's panic", v)
	}
	if got := recv(t, follower, "follower"); got.err == nil || got.c != nil {
		t.Fatalf("follower: got %v %v, want an error", got.c, got.err)
	}
	c, err := b.Acquire("k", func() (classify.Classifier, error) { return classify.NewJ48(), nil })
	if err != nil || c == nil || b.Len() != 1 {
		t.Fatalf("retry: %v %v len=%d", c, err, b.Len())
	}
}
