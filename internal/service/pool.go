package service

import (
	"sync"
	"time"

	"heimdall/internal/telemetry"
)

// Pool is the bounded worker pool for the expensive verify/commit path
// (enforcer review + shadow-snapshot derivation), shared by all tenants.
//
// Scheduling is per-tenant fair: each tenant owns a bounded FIFO queue
// and workers dequeue round-robin across tenants, so one noisy tenant
// with hundreds of queued reviews delays its own sessions, not everyone
// else's — under the old single global FIFO a burst from tenant A pushed
// every other tenant's queue wait to A's backlog depth. Backpressure is
// still bounded and fail-fast, but per tenant: when a tenant's queue is
// full its Submit fails with ErrQueueFull (surfaced as HTTP 429) while
// other tenants keep enqueueing.
//
// DoShared adds in-flight request coalescing (singleflight): concurrent
// submissions carrying the same content key share one execution and one
// queue slot, so N sessions replaying the same scripted ticket cost one
// verification.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queues holds one bounded FIFO per tenant; ring fixes the round-robin
	// order (tenants join on first submit and stay — an idle tenant's empty
	// queue costs one skipped ring slot per dispatch).
	queues    map[string]*tenantQueue
	ring      []string
	next      int
	tenantCap int
	depth     int
	isClosed  bool

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	flightMu sync.Mutex
	flights  map[string]*flight

	meter      telemetry.Meter
	depthGauge telemetry.Gauge
}

type tenantQueue struct {
	tasks []*poolTask
}

type poolTask struct {
	fn        func()
	done      chan struct{}
	submitted time.Time
	// started is set (under Pool.mu) when a worker dequeues the task; a
	// task that is started when Close lands will finish, an unstarted one
	// is dropped.
	started bool
}

// flight is one in-flight coalesced execution: the leader runs fn, every
// follower that arrives with the same key before it finishes waits on
// done and shares the result (and the leader's submit error — a follower
// joins the leader's fate, queue-full included).
type flight struct {
	done   chan struct{}
	result any
	err    error
}

// NewPool starts workers goroutines dispatching round-robin over
// per-tenant queues of the given per-tenant capacity. workers and
// tenantQueueCap are clamped to at least 1.
func NewPool(workers, tenantQueueCap int, meter telemetry.Meter) *Pool {
	if workers < 1 {
		workers = 1
	}
	if tenantQueueCap < 1 {
		tenantQueueCap = 1
	}
	if meter == nil {
		meter = telemetry.Nop()
	}
	p := &Pool{
		queues:     make(map[string]*tenantQueue),
		tenantCap:  tenantQueueCap,
		closed:     make(chan struct{}),
		flights:    make(map[string]*flight),
		meter:      meter,
		depthGauge: meter.Gauge("heimdall_service_queue_depth"),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// dequeueLocked pops the head of the next non-empty tenant queue in ring
// order. Callers hold p.mu.
func (p *Pool) dequeueLocked() (*poolTask, string, bool) {
	for i := 0; i < len(p.ring); i++ {
		name := p.ring[p.next%len(p.ring)]
		p.next = (p.next + 1) % len(p.ring)
		q := p.queues[name]
		if len(q.tasks) > 0 {
			t := q.tasks[0]
			q.tasks = q.tasks[1:]
			return t, name, true
		}
	}
	return nil, "", false
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for {
			if p.isClosed {
				p.mu.Unlock()
				return
			}
			t, tenant, ok := p.dequeueLocked()
			if !ok {
				p.cond.Wait()
				continue
			}
			t.started = true
			p.depth--
			depth := p.depth
			backlog := len(p.queues[tenant].tasks)
			p.mu.Unlock()
			p.depthGauge.Set(float64(depth))
			p.tenantGauge(tenant).Set(float64(backlog))
			// Queue wait (submit to dequeue) is backlog and verify_seconds
			// is enforcer cost: two histograms, never one.
			start := time.Now()
			p.meter.Histogram("heimdall_service_queue_wait_seconds", telemetry.LatencyBuckets).
				ObserveDuration(start.Sub(t.submitted))
			t.fn()
			p.meter.Histogram("heimdall_service_verify_seconds", telemetry.LatencyBuckets).
				ObserveDuration(time.Since(start))
			close(t.done)
			break
		}
	}
}

func (p *Pool) tenantGauge(tenant string) telemetry.Gauge {
	return p.meter.Gauge("heimdall_service_tenant_queue_depth", telemetry.L("tenant", tenant))
}

// Do submits fn on the tenant's queue and waits for a worker to finish
// it. It returns ErrQueueFull immediately when the tenant's queue has no
// room, and ErrPoolClosed after Close (unless the task had already
// started, in which case it is allowed to finish).
func (p *Pool) Do(tenant string, fn func()) error {
	t := &poolTask{fn: fn, done: make(chan struct{}), submitted: time.Now()}
	p.mu.Lock()
	if p.isClosed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	q, ok := p.queues[tenant]
	if !ok {
		q = &tenantQueue{}
		p.queues[tenant] = q
		p.ring = append(p.ring, tenant)
	}
	if len(q.tasks) >= p.tenantCap {
		p.mu.Unlock()
		p.meter.Counter("heimdall_service_backpressure_total").Inc()
		return ErrQueueFull
	}
	q.tasks = append(q.tasks, t)
	backlog := len(q.tasks)
	p.depth++
	depth := p.depth
	p.mu.Unlock()
	p.depthGauge.Set(float64(depth))
	p.tenantGauge(tenant).Set(float64(backlog))
	p.cond.Signal()

	select {
	case <-t.done:
		return nil
	case <-p.closed:
		// Workers finish tasks they already dequeued before exiting; a
		// task still queued when Close lands is dropped.
		p.mu.Lock()
		started := t.started
		p.mu.Unlock()
		if started {
			<-t.done
			return nil
		}
		return ErrPoolClosed
	}
}

// DoShared is Do with in-flight coalescing: concurrent calls carrying the
// same (tenant, key) share one queue slot and one execution of fn, whose
// result every caller receives. The second return reports whether this
// call was a follower (coalesced onto an execution another call
// submitted). Keys must be content addresses — equal keys must mean fn
// would produce an equivalent result; a follower receives the verdict as
// of the leader's submission, exactly as if it had been queued then.
func (p *Pool) DoShared(tenant, key string, fn func() any) (any, bool, error) {
	fkey := tenant + "|" + key
	p.flightMu.Lock()
	if f, ok := p.flights[fkey]; ok {
		p.flightMu.Unlock()
		<-f.done
		return f.result, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	p.flights[fkey] = f
	p.flightMu.Unlock()

	f.err = p.Do(tenant, func() { f.result = fn() })
	p.flightMu.Lock()
	delete(p.flights, fkey)
	p.flightMu.Unlock()
	close(f.done)
	return f.result, false, f.err
}

// Depth reports the current total queue depth across all tenant queues.
func (p *Pool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.depth
}

// Close stops the workers. In-flight tasks finish; queued-but-unstarted
// tasks are dropped and their Do calls return ErrPoolClosed.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.isClosed = true
		p.mu.Unlock()
		close(p.closed)
		p.cond.Broadcast()
	})
	p.wg.Wait()
}
