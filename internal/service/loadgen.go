package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"heimdall/internal/ticket"
	"heimdall/internal/twin"
)

// LoadConfig sizes a scripted-technician load run. The generator builds
// Tenants customer networks (round-robin across Scenarios), injects one
// scripted issue per tenant, opens SessionsPerTenant twin sessions per
// tenant — all concurrently live — and replays each issue's prepared
// diagnosis+fix script through the mediated Exec path, then (optionally)
// drives every session through the bounded review pool and commits one
// fix per tenant.
type LoadConfig struct {
	// Service is the target; nil builds a private one from ServiceConfig.
	Service *Service
	// ServiceConfig configures the private service when Service is nil.
	ServiceConfig Config
	// Tenants is the number of customer networks (default 50).
	Tenants int
	// SessionsPerTenant is the concurrent technician sessions per tenant
	// (default 20 — 1,000 sessions at the defaults).
	SessionsPerTenant int
	// Scenarios round-robins tenants across scenario names (default
	// university+enterprise).
	Scenarios []string
	// Reviews pushes every session's change set through the bounded
	// verify pool after its script (off unless explicitly enabled;
	// backpressure is counted, not fatal).
	Reviews bool
	// Commits lands one fix per tenant into tenant production.
	Commits bool
	// SetupWorkers bounds tenant/session construction concurrency
	// (default GOMAXPROCS; construction cost is excluded from the
	// throughput window).
	SetupWorkers int
}

// LoadReport is the run's result.
type LoadReport struct {
	Tenants  int   `json:"tenants"`
	Sessions int   `json:"sessions"`
	Commands int64 `json:"commands"`
	// Denied counts reference-monitor denials (twin.ErrDenied) only;
	// infrastructure failures (expired sessions, unknown devices, auth)
	// land in Errors so a clean run's "zero denials" headline means what
	// it says.
	Denied       int64   `json:"denied"`
	Errors       int64   `json:"errors"`
	Reviews      int64   `json:"reviews"`
	Backpressure int64   `json:"backpressure"`
	Commits      int64   `json:"commits"`
	SetupSeconds float64 `json:"setup_seconds"`
	// RunSeconds is the mediated-command phase only; ReviewSeconds is the
	// review/commit phase that follows it. The two run back-to-back with a
	// barrier between, so CmdsPerSec and the mediation percentiles measure
	// pure Exec throughput — before the split, verify/commit CPU from
	// fast-finishing sessions contended with still-running scripts and
	// polluted the mediation p99 (1.2s tails that were really enforcer
	// work, not mediation).
	RunSeconds    float64 `json:"run_seconds"`
	ReviewSeconds float64 `json:"review_seconds"`
	CmdsPerSec    float64 `json:"cmds_per_sec"`
	// P50Ms/P99Ms cover the mediated Exec path only — command parsing,
	// reference-monitor checks, twin apply. Verify-pool queue wait is
	// reported separately below so a deep review backlog cannot masquerade
	// as slow mediation.
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	VerifyQueueP50Ms float64 `json:"verify_queue_p50_ms"`
	VerifyQueueP99Ms float64 `json:"verify_queue_p99_ms"`
	PeakQueueDepth   int     `json:"peak_queue_depth"`
	// CacheHits counts reviews answered from the enforcer's verdict cache;
	// Coalesced counts reviews that shared another session's in-flight
	// verification. Reviews = fresh + CacheHits + Coalesced.
	CacheHits int64 `json:"review_cache_hits"`
	Coalesced int64 `json:"review_coalesced"`
}

// String renders the report's headline.
func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"%d tenants, %d concurrent sessions: %d mediated commands in %.2fs (%.0f cmds/sec, mediation p50 %.3fms, p99 %.3fms), %d denied, %d errors; %d reviews in %.2fs (%d cache hits, %d coalesced, %d backpressured), %d commits, verify queue wait p50 %.3fms, p99 %.3fms, peak depth %d",
		r.Tenants, r.Sessions, r.Commands, r.RunSeconds, r.CmdsPerSec,
		r.P50Ms, r.P99Ms, r.Denied, r.Errors, r.Reviews, r.ReviewSeconds,
		r.CacheHits, r.Coalesced, r.Backpressure, r.Commits,
		r.VerifyQueueP50Ms, r.VerifyQueueP99Ms, r.PeakQueueDepth)
}

// loadSession is one scripted technician session prepared for the run.
type loadSession struct {
	tenant string
	id     string
	token  string
	script []ticket.FixCommand
	commit bool
}

// RunLoad executes the load run and reports throughput, mediation
// latency percentiles and verify-queue pressure.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 50
	}
	if cfg.SessionsPerTenant <= 0 {
		cfg.SessionsPerTenant = 20
	}
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = []string{"university", "enterprise"}
	}
	if cfg.SetupWorkers <= 0 {
		cfg.SetupWorkers = 8
	}
	svc := cfg.Service
	if svc == nil {
		svc = New(cfg.ServiceConfig)
		defer svc.Close()
	}

	setupStart := time.Now()
	sessions, err := setupLoad(svc, cfg)
	if err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)

	// Every session is live before the first command: the run phase
	// measures pure mediated-command throughput with Tenants×Sessions
	// concurrent technicians. Reviews and commits run in a second phase
	// behind a barrier, so the mediation percentiles never absorb
	// verify/commit CPU from sessions that finished their scripts early.
	var (
		commands, denied, execErrs, reviews, backpressure, commits atomic.Int64

		latMu     sync.Mutex
		latencies []time.Duration
	)
	runStart := time.Now()
	var wg sync.WaitGroup
	for i := range sessions {
		ls := &sessions[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, len(ls.script))
			for _, cmd := range ls.script {
				t0 := time.Now()
				_, err := svc.Exec(ls.tenant, ls.id, ls.token, cmd.Device, cmd.Line)
				local = append(local, time.Since(t0))
				commands.Add(1)
				if err != nil {
					var d *twin.ErrDenied
					if errors.As(err, &d) {
						denied.Add(1)
					} else {
						execErrs.Add(1)
					}
				}
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}()
	}
	wg.Wait()
	run := time.Since(runStart)

	// Phase two: every session submits its change set for review, and one
	// session per tenant commits. All sessions replayed the same scripted
	// fix, so this is the cache/coalescing worst case the MSP workload
	// actually looks like — near-duplicate change sets arriving together.
	hits0, coal0 := svc.ReviewStats()
	reviewStart := time.Now()
	if cfg.Reviews || cfg.Commits {
		var rwg sync.WaitGroup
		for i := range sessions {
			ls := &sessions[i]
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				if cfg.Reviews {
					_, err := svc.Review(ls.tenant, ls.id, ls.token)
					switch {
					case errors.Is(err, ErrQueueFull):
						backpressure.Add(1)
					case err == nil:
						reviews.Add(1)
					default:
						reviews.Add(1) // reviewed but rejected/empty — still work done
					}
				}
				if cfg.Commits && ls.commit {
					if _, err := svc.Commit(ls.tenant, ls.id, ls.token); err == nil {
						commits.Add(1)
					} else if errors.Is(err, ErrQueueFull) {
						backpressure.Add(1)
					}
				}
			}()
		}
		rwg.Wait()
	}
	reviewDur := time.Since(reviewStart)
	hits1, coal1 := svc.ReviewStats()

	// Tear down: close every session that is still active.
	for i := range sessions {
		ls := &sessions[i]
		_ = svc.CloseSession(ls.tenant, ls.id, ls.token)
	}

	rep := &LoadReport{
		Tenants:        cfg.Tenants,
		Sessions:       len(sessions),
		Commands:       commands.Load(),
		Denied:         denied.Load(),
		Errors:         execErrs.Load(),
		Reviews:        reviews.Load(),
		Backpressure:   backpressure.Load(),
		Commits:        commits.Load(),
		SetupSeconds:   setup.Seconds(),
		RunSeconds:     run.Seconds(),
		ReviewSeconds:  reviewDur.Seconds(),
		PeakQueueDepth: svc.Pool().PeakDepth(),
		CacheHits:      hits1 - hits0,
		Coalesced:      coal1 - coal0,
	}
	if run > 0 {
		rep.CmdsPerSec = float64(rep.Commands) / run.Seconds()
	}
	rep.P50Ms, rep.P99Ms = percentiles(latencies)
	rep.VerifyQueueP50Ms, rep.VerifyQueueP99Ms = percentiles(svc.Pool().QueueWaits())
	return rep, nil
}

// setupLoad creates tenants, injects one scripted issue per tenant, files
// one ticket per session and opens every twin session.
func setupLoad(svc *Service, cfg LoadConfig) ([]loadSession, error) {
	type tenantPlan struct {
		id       string
		scenario string
	}
	plans := make([]tenantPlan, cfg.Tenants)
	for i := range plans {
		plans[i] = tenantPlan{
			id:       fmt.Sprintf("t-%03d", i),
			scenario: cfg.Scenarios[i%len(cfg.Scenarios)],
		}
	}

	sessions := make([]loadSession, cfg.Tenants*cfg.SessionsPerTenant)
	sem := make(chan struct{}, cfg.SetupWorkers)
	var wg sync.WaitGroup
	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for ti, plan := range plans {
		ti, plan := ti, plan
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := svc.CreateTenant(plan.id, plan.scenario); err != nil {
				fail(err)
				return
			}
			t, err := svc.Tenant(plan.id)
			if err != nil {
				fail(err)
				return
			}
			issues := t.ScenarioData().Issues
			if len(issues) == 0 {
				fail(fmt.Errorf("service: scenario %s has no issues", plan.scenario))
				return
			}
			issue := issues[ti%len(issues)]
			// One fault per tenant; every session diagnoses and fixes it
			// in its own twin, each under its own ticket.
			first, err := svc.InjectIssue(plan.id, issue.Name, "loadgen")
			if err != nil {
				fail(err)
				return
			}
			for si := 0; si < cfg.SessionsPerTenant; si++ {
				tk := first
				if si > 0 {
					tk, err = svc.CreateTicket(plan.id, ticket.Ticket{
						Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
						SrcHost: issue.SrcHost, DstHost: issue.DstHost,
						Proto: issue.Proto, DstPort: issue.DstPort,
						Suspects:  []string{issue.Fault.RootCause},
						CreatedBy: "loadgen",
					})
					if err != nil {
						fail(err)
						return
					}
				}
				tech := fmt.Sprintf("tech-%03d-%02d", ti, si)
				info, err := svc.CreateSession(plan.id, tech, tk.ID)
				if err != nil {
					fail(err)
					return
				}
				sessions[ti*cfg.SessionsPerTenant+si] = loadSession{
					tenant: plan.id,
					id:     info.Session,
					token:  info.Token,
					script: issue.Script,
					commit: si == 0,
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return sessions, nil
}

// percentiles returns (p50, p99) in milliseconds.
func percentiles(lat []time.Duration) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		idx := int(q * float64(len(lat)-1))
		return float64(lat[idx].Nanoseconds()) / 1e6
	}
	return at(0.50), at(0.99)
}
