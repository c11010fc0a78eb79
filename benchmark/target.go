package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"heimdall/internal/core"
	"heimdall/internal/enforcer"
	"heimdall/internal/service"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
)

// A target is one depth at which the same ops can be played:
//
//	depth 0  the real daemon over loopback        (layer heimdalld)
//	depth 1  Handler().ServeHTTP on a recorder    (layer service.http)
//	depth 2  Service.Exec/Review/Commit/...       (layer service)
//	depth 3  core.System / core.Engagement / twin.Session, as service calls them (engagement)
//
// Every method times exactly the call into its layer and returns that as
// reply.dur; building the request and decoding the reply are the
// harness's own work and stay outside the timer.
type target interface {
	layer() string
	createTenant(id, scenario string) error
	inject(tenant, issue string) (ticketID string, r reply)
	open(tenant, technician, ticketID string) (*session, reply)
	exec(s *session, device, line string) reply
	review(s *session) reply
	commit(s *session) reply
	close(s *session) reply
}

type session struct {
	tenant, id, token, ticket, technician string

	eng  *core.Engagement         // depth 3
	cons map[string]*twin.Session // depth 3, as Service caches them per device
}

type reply struct {
	status int
	dur    time.Duration
	start  time.Time
	output string               // exec
	review service.ReviewResult // review, commit
	bytes  int                  // response body size, depths 0 and 1
	err    string
}

// allocs, when non-nil, makes timed count the mallocs of each timed call
// into it. Only the single-goroutine allocation pass of a traced run sets
// it; ReadMemStats stops the world, so timings taken meanwhile are void.
var allocs *uint64

// timed runs the call into a layer and returns when it began and how long
// it took.
func timed(f func()) (time.Time, time.Duration) {
	if allocs != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		before := m.Mallocs
		defer func() {
			runtime.ReadMemStats(&m)
			*allocs += m.Mallocs - before
		}()
	}
	start := time.Now()
	f()
	return start, time.Since(start)
}

// statusOf maps a service error the way http.go's writeErr does for the
// errors these workloads can meet.
func statusOf(err error, ok int) int {
	var denied *twin.ErrDenied
	switch {
	case err == nil:
		return ok
	case errors.As(err, &denied), errors.Is(err, service.ErrBadToken):
		return http.StatusForbidden
	case errors.Is(err, service.ErrQueueFull):
		return http.StatusTooManyRequests
	}
	return http.StatusBadRequest
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// ---- depths 0 and 1: the HTTP API -----------------------------------------

// httpTarget speaks heimdalld's JSON API through do, which is either a
// keep-alive connection to the daemon or the in-process handler.
type httpTarget struct {
	name string
	do   func(method, path, token string, body []byte) (status int, resp []byte, start time.Time, dur time.Duration, err error)
}

func (t *httpTarget) layer() string { return t.name }

// wireTarget drives the daemon at base over one keep-alive connection.
func wireTarget(base string) *httpTarget {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return &httpTarget{name: "heimdalld", do: func(method, path, token string, body []byte) (status int, resp []byte, start time.Time, dur time.Duration, err error) {
		start, dur = timed(func() {
			var req *http.Request
			if req, err = http.NewRequest(method, base+path, bytes.NewReader(body)); err != nil {
				return
			}
			if token != "" {
				req.Header.Set(service.TokenHeader, token)
			}
			var res *http.Response
			if res, err = client.Do(req); err != nil {
				return
			}
			status = res.StatusCode
			resp, err = io.ReadAll(res.Body)
			res.Body.Close()
		})
		return
	}}
}

// handlerTarget calls the service's handler directly.
func handlerTarget(h http.Handler) *httpTarget {
	return &httpTarget{name: "service.http", do: func(method, path, token string, body []byte) (int, []byte, time.Time, time.Duration, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if token != "" {
			req.Header.Set(service.TokenHeader, token)
		}
		rec := httptest.NewRecorder()
		start, dur := timed(func() { h.ServeHTTP(rec, req) })
		return rec.Code, rec.Body.Bytes(), start, dur, nil
	}}
}

// call does one request and decodes the JSON reply into out (when the
// status is the expected one) or into reply.err.
func (t *httpTarget) call(method, path, token string, in, out any, want int) reply {
	var body []byte
	if in != nil {
		body, _ = json.Marshal(in) // plain structs of strings: cannot fail
	}
	status, resp, start, dur, err := t.do(method, path, token, body)
	r := reply{status: status, start: start, dur: dur, bytes: len(resp)}
	if err != nil {
		r.err = err.Error()
		return r
	}
	if status != want || out == nil {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(resp, &e) // best effort: the status already tells the story
		r.err = e.Error
		return r
	}
	if err := json.Unmarshal(resp, out); err != nil {
		r.err = "undecodable reply: " + err.Error()
		r.status = -1
	}
	return r
}

func (t *httpTarget) createTenant(id, scenario string) error {
	r := t.call("POST", "/v1/tenants", "", map[string]string{"id": id, "scenario": scenario}, nil, http.StatusCreated)
	if r.status != http.StatusCreated {
		return fmt.Errorf("create tenant %s: status %d %s", id, r.status, r.err)
	}
	return nil
}

func (t *httpTarget) inject(tenant, issue string) (string, reply) {
	var tk struct{ ID string }
	r := t.call("POST", "/v1/tenants/"+tenant+"/issues/"+issue, "", nil, &tk, http.StatusCreated)
	return tk.ID, r
}

func (t *httpTarget) open(tenant, technician, ticketID string) (*session, reply) {
	var info service.Info
	r := t.call("POST", "/v1/tenants/"+tenant+"/sessions", "",
		map[string]string{"technician": technician, "ticket": ticketID}, &info, http.StatusCreated)
	return &session{tenant: tenant, id: info.Session, token: info.Token, ticket: ticketID, technician: technician}, r
}

func (s *session) path(suffix string) string {
	return "/v1/tenants/" + s.tenant + "/sessions/" + s.id + suffix
}

func (t *httpTarget) exec(s *session, device, line string) reply {
	var out struct {
		Output string `json:"output"`
	}
	r := t.call("POST", s.path("/exec"), s.token, map[string]string{"device": device, "line": line}, &out, http.StatusOK)
	r.output = out.Output
	return r
}

func (t *httpTarget) review(s *session) reply {
	var res service.ReviewResult
	r := t.call("POST", s.path("/review"), s.token, nil, &res, http.StatusOK)
	r.review = res
	return r
}

func (t *httpTarget) commit(s *session) reply {
	var res service.ReviewResult
	r := t.call("POST", s.path("/commit"), s.token, nil, &res, http.StatusOK)
	r.review = res
	return r
}

func (t *httpTarget) close(s *session) reply {
	return t.call("DELETE", s.path(""), s.token, nil, nil, http.StatusOK)
}

// ---- depth 2: the Service methods ----------------------------------------

type serviceTarget struct{ svc *service.Service }

func (t serviceTarget) layer() string { return "service" }

func (t serviceTarget) createTenant(id, scenario string) error {
	_, err := t.svc.CreateTenant(id, scenario)
	return err
}

func (t serviceTarget) inject(tenant, issue string) (string, reply) {
	var tk *ticket.Ticket
	var err error
	start, dur := timed(func() { tk, err = t.svc.InjectIssue(tenant, issue, "api") })
	r := reply{start: start, dur: dur, status: statusOf(err, http.StatusCreated), err: errText(err)}
	if err != nil {
		return "", r
	}
	return tk.ID, r
}

func (t serviceTarget) open(tenant, technician, ticketID string) (*session, reply) {
	var info service.Info
	var err error
	start, dur := timed(func() { info, err = t.svc.CreateSession(tenant, technician, ticketID) })
	r := reply{start: start, dur: dur, status: statusOf(err, http.StatusCreated), err: errText(err)}
	return &session{tenant: tenant, id: info.Session, token: info.Token, ticket: ticketID, technician: technician}, r
}

func (t serviceTarget) exec(s *session, device, line string) reply {
	var out string
	var err error
	start, dur := timed(func() { out, err = t.svc.Exec(s.tenant, s.id, s.token, device, line) })
	return reply{start: start, dur: dur, status: statusOf(err, http.StatusOK), output: out, err: errText(err)}
}

// decided mirrors http.go's writeDecision: a rejected change set is a 200
// carrying the verdict, only infrastructure failures are error statuses.
func decided(start time.Time, dur time.Duration, res service.ReviewResult, err error) reply {
	r := reply{start: start, dur: dur, status: http.StatusOK, review: res}
	if err != nil && res.Reason == "" {
		r.status, r.err = statusOf(err, http.StatusOK), err.Error()
	}
	return r
}

func (t serviceTarget) review(s *session) reply {
	var res service.ReviewResult
	var err error
	start, dur := timed(func() { res, err = t.svc.Review(s.tenant, s.id, s.token) })
	return decided(start, dur, res, err)
}

func (t serviceTarget) commit(s *session) reply {
	var res service.ReviewResult
	var err error
	start, dur := timed(func() { res, err = t.svc.Commit(s.tenant, s.id, s.token) })
	return decided(start, dur, res, err)
}

func (t serviceTarget) close(s *session) reply {
	var err error
	start, dur := timed(func() { err = t.svc.CloseSession(s.tenant, s.id, s.token) })
	return reply{start: start, dur: dur, status: statusOf(err, http.StatusOK), err: errText(err)}
}

// ---- depth 3: what Service calls into -------------------------------------

// coreTarget makes the calls service.go makes on a tenant's core.System
// and on the engagement it gets back, without the service around them.
// Tenants are still onboarded through the service, which owns the
// scenario catalog and the enforcer wiring.
type coreTarget struct{ svc *service.Service }

func (t coreTarget) layer() string { return "engagement" }

func (t coreTarget) createTenant(id, scenario string) error {
	_, err := t.svc.CreateTenant(id, scenario)
	return err
}

func (t coreTarget) inject(tenant, issue string) (string, reply) {
	tn, err := t.svc.Tenant(tenant)
	if err != nil {
		return "", reply{status: http.StatusNotFound, err: err.Error()}
	}
	is := findIssue(tn.ScenarioData(), issue)
	var tk *ticket.Ticket
	start, dur := timed(func() {
		err = tn.System().MutateProduction(is.Fault.Inject)
		tk = tn.System().Tickets.Create(ticket.Ticket{
			Summary: is.Fault.Description, Kind: is.Fault.Kind,
			SrcHost: is.SrcHost, DstHost: is.DstHost, Proto: is.Proto, DstPort: is.DstPort,
			Suspects: []string{is.Fault.RootCause}, CreatedBy: "api",
		})
	})
	return tk.ID, reply{start: start, dur: dur, status: statusOf(err, http.StatusCreated), err: errText(err)}
}

func (t coreTarget) open(tenant, technician, ticketID string) (*session, reply) {
	tn, err := t.svc.Tenant(tenant)
	if err != nil {
		return nil, reply{status: http.StatusNotFound, err: err.Error()}
	}
	var eng *core.Engagement
	start, dur := timed(func() { eng, err = tn.System().StartWork(ticketID, technician) })
	r := reply{start: start, dur: dur, status: statusOf(err, http.StatusCreated), err: errText(err)}
	return &session{tenant: tenant, ticket: ticketID, technician: technician,
		eng: eng, cons: make(map[string]*twin.Session)}, r
}

func (t coreTarget) exec(s *session, device, line string) reply {
	con, ok := s.cons[device]
	if !ok {
		var err error
		if con, err = s.eng.Console(device); err != nil {
			return reply{status: http.StatusBadRequest, err: err.Error()}
		}
		s.cons[device] = con
	}
	var out string
	var err error
	start, dur := timed(func() { out, err = con.Exec(line) })
	return reply{start: start, dur: dur, status: statusOf(err, http.StatusOK), output: out, err: errText(err)}
}

func (t coreTarget) review(s *session) reply {
	var d *enforcer.Decision
	var err error
	start, dur := timed(func() { d, _, err = s.eng.ReviewCached() })
	r := reply{start: start, dur: dur, status: statusOf(err, http.StatusOK), err: errText(err)}
	if d != nil {
		r.review = service.ReviewResult{Accepted: d.Accepted, Reason: d.Reason(), Checked: d.Checked}
		for _, v := range d.Violations {
			r.review.Violations = append(r.review.Violations, v.String())
		}
	}
	return r
}

func (t coreTarget) commit(s *session) reply {
	var d *enforcer.Decision
	var err error
	start, dur := timed(func() { d, err = s.eng.Commit() })
	r := reply{start: start, dur: dur, status: http.StatusOK, err: errText(err)}
	if d != nil {
		r.review = service.ReviewResult{Accepted: d.Accepted, Reason: d.Reason(), Checked: d.Checked}
	}
	r.review.Committed = err == nil
	if tk := s.eng.Ticket; tk != nil {
		tn, _ := t.svc.Tenant(s.tenant) // the session was opened on this tenant
		if cur := tn.System().Tickets.Get(tk.ID); cur != nil {
			r.review.Status = cur.Status.String()
		}
	}
	return r
}

// close has no counterpart below the service: closing is the service's
// own bookkeeping. Dropping the engagement is all that is left.
func (t coreTarget) close(s *session) reply {
	s.eng, s.cons = nil, nil
	return reply{start: time.Now(), status: http.StatusOK}
}
