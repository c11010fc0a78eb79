package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"

	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
)

// TokenHeader carries the session attach token on authenticated calls.
const TokenHeader = "X-Heimdall-Token"

// Handler returns the service's HTTP JSON API (stdlib only):
//
//	POST   /v1/tenants                                     {"id","scenario"}
//	GET    /v1/tenants
//	GET    /v1/tenants/{t}
//	POST   /v1/tenants/{t}/tickets                         {"summary","srcHost",...}
//	GET    /v1/tenants/{t}/tickets
//	POST   /v1/tenants/{t}/issues/{issue}                  inject scripted issue + file ticket
//	POST   /v1/tenants/{t}/sessions                        {"technician","ticket"}
//	GET    /v1/tenants/{t}/sessions
//	GET    /v1/tenants/{t}/sessions/{s}                    attach (token header)
//	POST   /v1/tenants/{t}/sessions/{s}/exec               {"device","line"} (token header)
//	GET    /v1/tenants/{t}/sessions/{s}/privileges         (token header)
//	POST   /v1/tenants/{t}/sessions/{s}/review             (token header)
//	POST   /v1/tenants/{t}/sessions/{s}/commit             (token header)
//	DELETE /v1/tenants/{t}/sessions/{s}                    close (token header)
//	GET    /metrics                                        Prometheus exposition
//	GET    /healthz
//
// Errors map onto statuses: unknown tenant/session/ticket 404, duplicate
// tenant 409, token mismatch 403, reference-monitor denial 403, expired
// session 410, closed session 409, verify-queue overload 429, request body
// over 1 MiB 413, a handler panic 500 (recoverPanics). Every JSON reply is
// one compact line with a Content-Length.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID       string `json:"id"`
			Scenario string `json:"scenario"`
		}
		if !decode(w, r, &req) {
			return
		}
		info, err := s.CreateTenant(req.ID, req.Scenario)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Tenants())
	})

	mux.HandleFunc("GET /v1/tenants/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		t, err := s.Tenant(r.PathValue("tenant"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.tenantInfo(t))
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/tickets", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Summary  string   `json:"summary"`
			SrcHost  string   `json:"srcHost"`
			DstHost  string   `json:"dstHost"`
			Suspects []string `json:"suspects"`
			Reporter string   `json:"reporter"`
		}
		if !decode(w, r, &req) {
			return
		}
		tk, err := s.CreateTicket(r.PathValue("tenant"), ticket.Ticket{
			Summary: req.Summary, SrcHost: req.SrcHost, DstHost: req.DstHost,
			Suspects: req.Suspects, CreatedBy: req.Reporter,
		})
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, tk)
	})

	mux.HandleFunc("GET /v1/tenants/{tenant}/tickets", func(w http.ResponseWriter, r *http.Request) {
		tks, err := s.Tickets(r.PathValue("tenant"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, tks)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/issues/{issue}", func(w http.ResponseWriter, r *http.Request) {
		tk, err := s.InjectIssue(r.PathValue("tenant"), r.PathValue("issue"), "api")
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, tk)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Technician string `json:"technician"`
			Ticket     string `json:"ticket"`
		}
		if !decode(w, r, &req) {
			return
		}
		info, err := s.CreateSession(r.PathValue("tenant"), req.Technician, req.Ticket)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions", func(w http.ResponseWriter, r *http.Request) {
		infos, err := s.Sessions(r.PathValue("tenant"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, infos)
	})

	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions/{session}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.Attach(r.PathValue("tenant"), r.PathValue("session"), r.Header.Get(TokenHeader))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{session}/exec", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Device string `json:"device"`
			Line   string `json:"line"`
		}
		if !decode(w, r, &req) {
			return
		}
		out, err := s.Exec(r.PathValue("tenant"), r.PathValue("session"),
			r.Header.Get(TokenHeader), req.Device, req.Line)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, execReply{out})
	})

	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions/{session}/privileges", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.Privileges(r.PathValue("tenant"), r.PathValue("session"), r.Header.Get(TokenHeader))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{session}/review", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Review(r.PathValue("tenant"), r.PathValue("session"), r.Header.Get(TokenHeader))
		writeDecision(w, res, err)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{session}/commit", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Commit(r.PathValue("tenant"), r.PathValue("session"), r.Header.Get(TokenHeader))
		writeDecision(w, res, err)
	})

	mux.HandleFunc("DELETE /v1/tenants/{tenant}/sessions/{session}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.CloseSession(r.PathValue("tenant"), r.PathValue("session"), r.Header.Get(TokenHeader)); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"state": "closed"})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		exp, ok := s.meter.(telemetry.Exposer)
		if !ok {
			http.Error(w, "no metrics registry configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = fmt.Fprint(w, exp.Dump())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"tenants": s.reg.count(),
		})
	})

	return s.recoverPanics(mux)
}

// recoverPanics turns a handler's panic into a compact JSON 500, logged with
// its stack and counted (heimdall_service_http_panics_total), where net/http
// would drop the connection without a reply; the server serves on.
// http.ErrAbortHandler keeps its meaning: the handler wants the connection
// dropped.
func (s *Service) recoverPanics(next http.Handler) http.Handler {
	panics := s.meter.Counter("heimdall_service_http_panics_total")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			switch v := recover(); v {
			case nil:
			case http.ErrAbortHandler:
				panic(v)
			default:
				panics.Inc()
				log.Printf("heimdall: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "internal error"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// writeDecision renders a Review/Commit outcome. A rejected change set is
// a successful API call (200 with accepted=false), not a transport error;
// only infrastructure failures (overload, auth, lifecycle) use error
// statuses.
func writeDecision(w http.ResponseWriter, res ReviewResult, err error) {
	if err != nil && res.Reason == "" {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// maxBodyBytes bounds a request body; no request the API takes comes near it.
const maxBodyBytes = 1 << 20

// decode reads the request's JSON body into v, or answers 400 (413 for a
// body over maxBodyBytes) and returns false before the handler touches
// anything.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, map[string]string{"error": "bad request body: " + err.Error()})
	return false
}

// execReply is the exec endpoint's body: a struct, so the encoder neither
// builds nor sorts a map for the API's most frequent reply.
type execReply struct {
	Output string `json:"output"`
}

// replyBufs holds the buffers writeJSON encodes into.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON sends v as one line of compact JSON, "<" and "&" unescaped. The
// body is encoded into a pooled buffer first, so the reply carries a
// Content-Length and leaves in one write instead of being chunked.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := replyBufs.Get().(*bytes.Buffer)
	defer replyBufs.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		http.Error(w, "encoding reply: "+err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a write error means the client has gone
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var denied *twin.ErrDenied
	switch {
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrBadToken), errors.As(err, &denied):
		status = http.StatusForbidden
	case errors.Is(err, ErrNoTenant), errors.Is(err, ErrNoSession), errors.Is(err, ErrNoScenario):
		status = http.StatusNotFound
	case errors.Is(err, ErrTenantExists), errors.Is(err, ErrSessionClosed):
		status = http.StatusConflict
	case errors.Is(err, ErrSessionExpired):
		status = http.StatusGone
	case errors.Is(err, ErrPoolClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
