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

	// The instruments, looked up once: the pool's, and each tenant's
	// queue depth when its queue is made.
	meter                 telemetry.Meter
	depthGauge            telemetry.Gauge
	queueWait, verifyTime telemetry.Histogram
}

type tenantQueue struct {
	tasks []*poolTask
	depth telemetry.Gauge // heimdall_service_tenant_queue_depth{tenant}
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
		meter:      meter,
		depthGauge: meter.Gauge("heimdall_service_queue_depth"),
		queueWait:  meter.Histogram("heimdall_service_queue_wait_seconds", telemetry.LatencyBuckets),
		verifyTime: meter.Histogram("heimdall_service_verify_seconds", telemetry.LatencyBuckets),
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
			q := p.queues[tenant]
			backlog := len(q.tasks)
			p.mu.Unlock()
			p.depthGauge.Set(float64(depth))
			q.depth.Set(float64(backlog))
			// Queue wait (submit to dequeue) is backlog and verify_seconds
			// is enforcer cost: two histograms, never one.
			start := time.Now()
			p.queueWait.ObserveDuration(start.Sub(t.submitted))
			t.fn()
			p.verifyTime.ObserveDuration(time.Since(start))
			close(t.done)
			break
		}
	}
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
		q = &tenantQueue{depth: p.meter.Gauge("heimdall_service_tenant_queue_depth", telemetry.L("tenant", tenant))}
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
	q.depth.Set(float64(backlog))
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
