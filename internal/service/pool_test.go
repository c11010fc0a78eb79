package service

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heimdall/internal/telemetry"
)

func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(2, 4, telemetry.Nop())
	defer p.Close()
	var mu sync.Mutex
	n := 0
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Do("acme", func() {
				mu.Lock()
				n++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	// With queue 4 and 2 workers some of the 20 may be rejected, but every
	// accepted task must have run.
	if n == 0 {
		t.Fatal("no tasks ran")
	}
}

func TestPoolBackpressure(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(1, 2, reg)
	defer p.Close()

	// Block the single worker so further submissions pile into the queue.
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.Do("acme", func() {
			close(started)
			<-release
		})
	}()
	<-started

	// Fill the queue (capacity 2) with tasks that will wait.
	fill := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill <- p.Do("acme", func() {})
		}()
	}
	// Wait until both queued tasks are actually enqueued.
	waitDepth(t, p, 2)

	// The next submission must fail fast with ErrQueueFull.
	if err := p.Do("acme", func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overloaded Do = %v, want ErrQueueFull", err)
	}
	if got := reg.CounterValue("heimdall_service_backpressure_total"); got != 1 {
		t.Fatalf("backpressure counter = %v, want 1", got)
	}

	close(release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-fill; err != nil {
			t.Fatalf("queued task failed: %v", err)
		}
	}
	if p.Depth() != 0 {
		t.Fatalf("Depth after drain = %d, want 0", p.Depth())
	}
}

func TestPoolClose(t *testing.T) {
	p := NewPool(1, 1, telemetry.Nop())
	p.Close()
	if err := p.Do("acme", func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Do after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// TestPoolFairRoundRobin pins the scheduling contract: with one worker
// blocked and a noisy tenant's backlog already queued, a quiet tenant's
// single submission is dispatched on the next round-robin pass — not
// behind the noisy tenant's whole backlog as the old global FIFO did.
func TestPoolFairRoundRobin(t *testing.T) {
	p := NewPool(1, 8, telemetry.Nop())
	defer p.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.Do("noisy", func() { close(started); <-release })
	}()
	<-started

	var mu sync.Mutex
	var order []string
	submit := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Do(tenant, func() {
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
			})
		}()
	}
	for i := 0; i < 5; i++ {
		submit("noisy")
	}
	waitDepth(t, p, 5) // the noisy backlog is fully queued first
	submit("quiet")
	waitDepth(t, p, 6)

	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 6 {
		t.Fatalf("ran %d tasks, want 6", len(order))
	}
	quietAt := -1
	for i, tenant := range order {
		if tenant == "quiet" {
			quietAt = i
		}
	}
	// Round-robin dispatch: at most one noisy head-of-line task runs before
	// the quiet tenant's turn. A global FIFO would run it last (index 5).
	if quietAt < 0 || quietAt > 1 {
		t.Fatalf("quiet tenant ran at position %d of %v, want <= 1", quietAt, order)
	}
}

// TestPoolDoSharedCoalesces pins singleflight semantics: concurrent
// same-key submissions share the leader's one execution and result, a
// different key executes on its own, and a leader that hits backpressure
// surfaces ErrQueueFull.
func TestPoolDoSharedCoalesces(t *testing.T) {
	p := NewPool(1, 4, telemetry.Nop())
	defer p.Close()

	// Block the single worker so the leader's flight stays open while the
	// followers arrive.
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.Do("acme", func() { close(started); <-release })
	}()
	<-started

	var execs, coalesced atomic.Int32
	type shared struct {
		v   any
		err error
	}
	results := make(chan shared, 4)
	call := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, c, err := p.DoShared("acme", "k1", func() any {
				execs.Add(1)
				return 42
			})
			if c {
				coalesced.Add(1)
			}
			results <- shared{v, err}
		}()
	}
	call() // leader: enqueued behind the blocker, flight registered
	waitDepth(t, p, 1)
	for i := 0; i < 3; i++ {
		call() // followers: must join the open flight, not enqueue
	}
	// Followers park on the flight without consuming queue slots; give them
	// a beat to register, then let the worker run the leader's task.
	time.Sleep(20 * time.Millisecond)
	if d := p.Depth(); d != 1 {
		t.Fatalf("depth with 3 followers parked = %d, want 1 (leader only)", d)
	}
	close(release)
	wg.Wait()

	for i := 0; i < 4; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("DoShared error: %v", r.err)
		}
		if r.v != 42 {
			t.Fatalf("shared result = %v, want 42", r.v)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if got := coalesced.Load(); got != 3 {
		t.Fatalf("coalesced count = %d, want 3", got)
	}

	// A different key after the flight closed executes independently.
	v, c, err := p.DoShared("acme", "k2", func() any {
		execs.Add(1)
		return 7
	})
	if err != nil || c || v != 7 {
		t.Fatalf("distinct key: v=%v coalesced=%v err=%v, want 7/false/nil", v, c, err)
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("fn executed %d times after distinct key, want 2", got)
	}
}

// TestPoolDoSharedBackpressure: a DoShared leader rejected by the
// tenant's full queue fails fast with ErrQueueFull like plain Do.
func TestPoolDoSharedBackpressure(t *testing.T) {
	p := NewPool(1, 1, telemetry.Nop())
	defer p.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.Do("acme", func() { close(started); <-release })
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.Do("acme", func() {}) // fills the queue (capacity 1)
	}()
	waitDepth(t, p, 1)

	if _, c, err := p.DoShared("acme", "k", func() any { return nil }); !errors.Is(err, ErrQueueFull) || c {
		t.Fatalf("overloaded DoShared = (coalesced=%v, %v), want ErrQueueFull", c, err)
	}
	close(release)
	wg.Wait()
}

// TestPoolDoSharedHammer races many goroutines over a small key space
// under -race: every caller must get its own key's result back.
func TestPoolDoSharedHammer(t *testing.T) {
	p := NewPool(2, 256, telemetry.Nop())
	defer p.Close()

	keys := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := keys[(g+i)%len(keys)]
				v, _, err := p.DoShared("t", key, func() any { return "r:" + key })
				if err != nil {
					t.Errorf("DoShared(%s): %v", key, err)
					return
				}
				if s, ok := v.(string); !ok || s != "r:"+key {
					t.Errorf("DoShared(%s) = %v, want r:%s", key, v, key)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// waitDepth waits until the pool's queue depth reaches want.
func waitDepth(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Depth() >= want {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("queue depth never reached %d (at %d)", want, p.Depth())
}
