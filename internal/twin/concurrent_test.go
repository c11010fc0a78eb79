package twin

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"heimdall/internal/audit"
	"heimdall/internal/config"
)

// TestTwinConcurrentExec hammers one twin from many goroutines at once:
// mixed read commands (snapshot-backed diagnostics), write commands
// (interface toggles, ACL edits), diff extraction and snapshot reads all
// race on the shared emulation layer. Run under -race this pins the
// twin-level serialization added for the service layer; without the
// twin mutex this test fails immediately on the console environment's
// snapshot cache.
//
// Dedicated readers call Changes() between the writers the whole time: the
// memo is invalidated when a write is dispatched, inside the critical
// section that executes it, so a reader sees a set that is whole for some
// serial order — here nothing but Gi0/1 toggles, one per router at most —
// and once the writers are done the set equals the whole-network diff.
func TestTwinConcurrentExec(t *testing.T) {
	trail := audit.NewTrail([]byte("conc"))
	prod := prodNet()
	tw, err := New(Config{
		Ticket: "T-CONC", Technician: "many",
		Production: prod, Spec: allowAllSpec(), Trail: trail,
	})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const iters = 25
	var wg, readers sync.WaitGroup
	errs := make(chan error, goroutines+4)
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ch := tw.Changes()
				for _, c := range ch {
					if len(ch) > 4 || c.Op != config.OpSetInterface || c.Interface.Name != "Gi0/1" {
						errs <- fmt.Errorf("Changes() mid-flight = %v", ch)
						return
					}
				}
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := []string{"r1", "r2", "r3", "r4"}[g%4]
			sess, err := tw.OpenConsole(dev)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := sess.Exec("show ip route"); err != nil {
						errs <- err
						return
					}
				case 1:
					// Write + revert: toggles the emulation layer and
					// invalidates the cached snapshot under contention.
					if _, err := sess.Exec("interface Gi0/1 shutdown"); err != nil {
						errs <- err
						return
					}
					if _, err := sess.Exec("interface Gi0/1 no shutdown"); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := sess.Exec("show running-config"); err != nil {
						errs <- err
						return
					}
					_ = tw.Changes()
				case 3:
					_ = tw.Snapshot()
					_ = tw.VisibleDevices()
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The hash chain must survive the interleaving intact, and every
	// command entry must still carry the twin's ticket identity.
	if err := trail.Verify(); err != nil {
		t.Fatalf("audit chain broken after concurrent exec: %v", err)
	}
	for _, e := range trail.Links() {
		if e.Ticket != "T-CONC" {
			t.Fatalf("audit entry with foreign ticket %q", e.Ticket)
		}
	}
	// No stuck writes: all toggles reverted, so the twin has no diff.
	if ch := tw.Changes(); len(ch) != 0 {
		var b strings.Builder
		for _, c := range ch {
			b.WriteString(c.String() + "; ")
		}
		t.Fatalf("expected clean twin after balanced toggles, got %d changes: %s", len(ch), b.String())
	}

	// Unbalanced writers against readers: one ACL entry per goroutine stays.
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(2)
		go func() {
			defer wg.Done()
			sess, err := tw.OpenConsole([]string{"r1", "r2", "r3", "r4"}[g%4])
			if err == nil {
				_, err = sess.Exec(fmt.Sprintf("access-list CONC %d permit tcp any any eq %d", 10+g, 9000+g))
			}
			if err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			_ = tw.Changes()
		}()
	}
	wg.Wait()
	got, want := tw.Changes(), config.DiffNetwork(sanitized(prod), tw.Network())
	if len(got) != goroutines || !reflect.DeepEqual(got, want) {
		t.Fatalf("after concurrent writes Changes() = %v, DiffNetwork = %v", got, want)
	}
}
