// Command heimdalld is the long-running multi-tenant Heimdall service: one
// process hosting many customer networks, each with its own digital twin,
// ticket system, policy enforcer and audit trail, behind a stdlib HTTP
// JSON API (see docs/SERVICE.md for the endpoint reference):
//
//	heimdalld -addr 127.0.0.1:8787 -preload acme=university,globex=enterprise
//
// An idle-session sweeper runs on -sweep-interval; verify/commit load is
// bounded by -verify-workers/-verify-queue with 429 backpressure, and
// /metrics serves the Prometheus exposition for the whole fleet.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"heimdall/internal/service"
	"heimdall/internal/telemetry"
)

// A client gets this long to send its request headers, and a keep-alive
// connection may sit idle this long, before the server drops it.
const (
	readHeaderTimeout = 10 * time.Second
	connIdleTimeout   = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:8787", "HTTP listen address")
	shards := flag.Int("shards", 8, "tenant registry shard count")
	verifyWorkers := flag.Int("verify-workers", 0, "bounded verify/commit workers (0 = GOMAXPROCS)")
	verifyQueue := flag.Int("verify-queue", 64, "verify queue capacity; overflow returns 429")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Minute, "idle technician sessions expire after this")
	sweepInterval := flag.Duration("sweep-interval", time.Minute, "how often the idle sweeper runs")
	preload := flag.String("preload", "", "comma-separated id=scenario tenants to onboard at startup")
	platformSeed := flag.String("platform-seed", "", "deterministic per-tenant platform seed (tests/CI)")
	flag.Parse()

	reg := telemetry.NewRegistry()
	svc := service.New(service.Config{
		Shards:        *shards,
		VerifyWorkers: *verifyWorkers,
		VerifyQueue:   *verifyQueue,
		IdleTimeout:   *idleTimeout,
		Meter:         reg,
		PlatformSeed:  *platformSeed,
	})
	defer svc.Close()

	if err := preloadTenants(svc, *preload); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: connIdleTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Idle-session sweeper.
	go func() {
		tick := time.NewTicker(*sweepInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if n := svc.SweepIdle(); n > 0 {
					log.Printf("sweeper: expired %d idle session(s)", n)
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("heimdalld listening on %s (%d shards, idle timeout %s, sweep every %s)",
		ln.Addr(), svc.Shards(), *idleTimeout, *sweepInterval)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("heimdalld: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("heimdalld: drain deadline hit: %v", err)
	}
}

// preloadTenants onboards "id=scenario" pairs from the -preload flag.
func preloadTenants(svc *service.Service, spec string) error {
	if spec == "" {
		return nil
	}
	for _, pair := range strings.Split(spec, ",") {
		id, scenario, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return fmt.Errorf("bad -preload entry %q (want id=scenario)", pair)
		}
		info, err := svc.CreateTenant(id, scenario)
		if err != nil {
			return fmt.Errorf("preload %s: %w", id, err)
		}
		log.Printf("preloaded tenant %s (%s, %d devices)", info.ID, info.Scenario, info.Devices)
	}
	return nil
}
