package main

import (
	"net/http"
	"testing"
	"time"
)

// A zero timeout means "none" to net/http: with ReadTimeout unset, a client
// that sends its headers and then stalls mid-body holds a handler forever.
func TestNewServerBoundsEveryPhase(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want > 0", name, d)
		}
	}
}
