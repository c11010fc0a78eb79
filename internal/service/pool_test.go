package service

import (
	"errors"
	"runtime"
	"sync"
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

// Depth reports the current total queue depth across all tenant queues.
func (p *Pool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.depth
}
