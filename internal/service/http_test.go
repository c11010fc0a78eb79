package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"heimdall/internal/config"
	"heimdall/internal/telemetry"
)

// httpClient is a thin helper over the test server.
type httpClient struct {
	t   *testing.T
	srv *httptest.Server
}

func (c *httpClient) do(method, path, token string, body any) (int, []byte) {
	c.t.Helper()
	status, out, err := c.try(method, path, token, body)
	if err != nil {
		c.t.Fatal(err)
	}
	return status, out
}

// try is do for goroutines that may not call Fatal.
func (c *httpClient) try(method, path, token string, body any) (int, []byte, error) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if token != "" {
		req.Header.Set(TokenHeader, token)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if path != "/metrics" {
		checkFraming(c.t, method+" "+path, resp, out)
	}
	return resp.StatusCode, out, nil
}

// checkFraming holds every JSON reply, small or large, success or error, to
// the wire contract: one compact line, its length announced up front so that
// net/http does not chunk it.
func checkFraming(t *testing.T, what string, resp *http.Response, body []byte) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", what, ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("%s: Content-Length %q, body is %d bytes", what, cl, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: Transfer-Encoding %v", what, resp.TransferEncoding)
	}
	if n := bytes.Count(body, []byte("\n")); n != 1 || !bytes.HasSuffix(body, []byte("\n")) {
		t.Errorf("%s: body is not one line: %q", what, body)
	}
}

func (c *httpClient) doJSON(method, path, token string, body, out any) int {
	c.t.Helper()
	status, raw := c.do(method, path, token, body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: bad JSON %q: %v", method, path, raw, err)
		}
	}
	return status
}

func TestHTTPWorkflow(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Meter: reg, PlatformSeed: "http-test"})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := &httpClient{t: t, srv: srv}

	// Onboard a tenant.
	var tenant TenantInfo
	if s := c.doJSON("POST", "/v1/tenants", "", map[string]string{"id": "acme", "scenario": "university"}, &tenant); s != http.StatusCreated {
		t.Fatalf("create tenant: status %d", s)
	}
	if tenant.Devices == 0 {
		t.Fatalf("tenant reports no devices: %+v", tenant)
	}
	// Duplicate onboarding conflicts.
	if s, _ := c.do("POST", "/v1/tenants", "", map[string]string{"id": "acme", "scenario": "university"}); s != http.StatusConflict {
		t.Fatalf("duplicate tenant: status %d, want 409", s)
	}
	// Unknown scenario.
	if s, _ := c.do("POST", "/v1/tenants", "", map[string]string{"id": "x", "scenario": "nope"}); s != http.StatusNotFound {
		t.Fatalf("unknown scenario: status %d, want 404", s)
	}

	// Inject a scripted issue — files the ticket.
	var tk struct {
		ID string `json:"id"`
	}
	if s := c.doJSON("POST", "/v1/tenants/acme/issues/acl", "", nil, &tk); s != http.StatusCreated {
		t.Fatalf("inject issue: status %d", s)
	}
	if tk.ID == "" {
		t.Fatal("injected issue returned no ticket ID")
	}

	// Open a session for the ticket.
	var info Info
	if s := c.doJSON("POST", "/v1/tenants/acme/sessions", "", map[string]string{"technician": "alice", "ticket": tk.ID}, &info); s != http.StatusCreated {
		t.Fatalf("create session: status %d", s)
	}
	if info.Token == "" || len(info.Slice) == 0 {
		t.Fatalf("session info incomplete: %+v", info)
	}
	sessPath := "/v1/tenants/acme/sessions/" + info.Session

	// Session listing withholds the token.
	var list []Info
	if s := c.doJSON("GET", "/v1/tenants/acme/sessions", "", nil, &list); s != http.StatusOK {
		t.Fatalf("list sessions: status %d", s)
	}
	if len(list) != 1 || list[0].Token != "" {
		t.Fatalf("session listing leaked the token: %+v", list)
	}

	// Attach needs the right token.
	if s, _ := c.do("GET", sessPath, "wrong-token", nil); s != http.StatusForbidden {
		t.Fatalf("bad-token attach: status %d, want 403", s)
	}
	if s := c.doJSON("GET", sessPath, info.Token, nil, &info); s != http.StatusOK {
		t.Fatalf("attach: status %d", s)
	}

	// Mediated exec inside the slice succeeds.
	var execOut struct {
		Output string `json:"output"`
	}
	if s := c.doJSON("POST", sessPath+"/exec", info.Token, map[string]string{"device": info.Slice[0], "line": "show ip route"}, &execOut); s != http.StatusOK {
		t.Fatalf("exec: status %d", s)
	}
	if execOut.Output == "" {
		t.Fatal("exec returned empty output")
	}

	tn, err := svc.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}

	// The largest read a diagnosis makes: a whole running-config (8 KB on
	// the core routers) arrives intact, its redacted secrets spelled
	// literally, not as \u003c escapes.
	largest := ""
	for _, dev := range info.Slice {
		s, raw := c.do("POST", sessPath+"/exec", info.Token, map[string]string{"device": dev, "line": "show running-config"})
		if s != http.StatusOK {
			t.Fatalf("show running-config on %s: status %d: %s", dev, s, raw)
		}
		if bytes.Contains(raw, []byte(`\u00`)) {
			t.Fatalf("%s: reply escapes what JSON does not require: %s", dev, raw)
		}
		if err := json.Unmarshal(raw, &execOut); err != nil {
			t.Fatal(err)
		}
		// Nothing is written yet: the twin is production, sanitized.
		if want := config.Print(config.Sanitize(tn.System().Production().Devices[dev])); execOut.Output != want {
			t.Fatalf("%s: running-config over the wire differs from the twin's:\n%s\nvs\n%s", dev, execOut.Output, want)
		}
		if len(execOut.Output) > len(largest) {
			largest = execOut.Output
		}
	}
	if len(largest) < 8000 || !strings.Contains(largest, "<redacted>") {
		t.Fatalf("largest running-config in the slice is %d bytes, redacted=%v; want an 8 KB reply with secrets",
			len(largest), strings.Contains(largest, "<redacted>"))
	}

	// Privilege inspection shows the compiled rules and slice.
	var priv PrivilegeInfo
	if s := c.doJSON("GET", sessPath+"/privileges", info.Token, nil, &priv); s != http.StatusOK {
		t.Fatalf("privileges: status %d", s)
	}
	if priv.Ticket != tk.ID || len(priv.Rules) == 0 || len(priv.Slice) == 0 {
		t.Fatalf("privileges incomplete: %+v", priv)
	}

	// Run the scripted fix so there is something to review and commit.
	var script []struct{ Device, Line string }
	for _, is := range tn.ScenarioData().Issues {
		if is.Name == "acl" {
			for _, cmd := range is.Script {
				script = append(script, struct{ Device, Line string }{cmd.Device, cmd.Line})
			}
		}
	}
	if len(script) == 0 {
		t.Fatal("acl issue has no script")
	}
	for _, cmd := range script {
		if s, out := c.do("POST", sessPath+"/exec", info.Token, map[string]string{"device": cmd.Device, "line": cmd.Line}); s != http.StatusOK {
			t.Fatalf("scripted exec %q on %s: status %d: %s", cmd.Line, cmd.Device, s, out)
		}
	}

	// Review (no production mutation), then commit.
	var rev ReviewResult
	if s := c.doJSON("POST", sessPath+"/review", info.Token, nil, &rev); s != http.StatusOK {
		t.Fatalf("review: status %d", s)
	}
	if !rev.Accepted || rev.Committed {
		t.Fatalf("review = %+v, want accepted and not committed", rev)
	}
	var com ReviewResult
	if s := c.doJSON("POST", sessPath+"/commit", info.Token, nil, &com); s != http.StatusOK {
		t.Fatalf("commit: status %d", s)
	}
	if !com.Accepted || !com.Committed {
		t.Fatalf("commit = %+v, want accepted and committed", com)
	}

	// Close; double close conflicts; exec after close conflicts.
	if s, _ := c.do("DELETE", sessPath, info.Token, nil); s != http.StatusOK {
		t.Fatalf("close: status %d", s)
	}
	if s, _ := c.do("DELETE", sessPath, info.Token, nil); s != http.StatusConflict {
		t.Fatalf("double close: status %d, want 409", s)
	}
	if s, _ := c.do("POST", sessPath+"/exec", info.Token, map[string]string{"device": info.Slice[0], "line": "show ip route"}); s != http.StatusConflict {
		t.Fatalf("exec after close: status %d, want 409", s)
	}

	// Metrics exposition carries the per-tenant series.
	s, raw := c.do("GET", "/metrics", "", nil)
	if s != http.StatusOK {
		t.Fatalf("metrics: status %d", s)
	}
	metrics := string(raw)
	for _, want := range []string{
		`heimdall_service_commands_total{tenant="acme"}`,
		`heimdall_service_sessions_total{tenant="acme"}`,
		`heimdall_service_mediation_seconds`,
		"heimdall_service_queue_depth",
		"heimdall_service_tenants",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// Health.
	if s, _ := c.do("GET", "/healthz", "", nil); s != http.StatusOK {
		t.Fatalf("healthz: status %d", s)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	vc := telemetry.NewVirtualClock(time.Unix(1700000000, 0))
	svc := New(Config{Clock: vc.Now, IdleTimeout: time.Minute})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := &httpClient{t: t, srv: srv}

	// Unknown tenant and session are 404, the reason in an "error" field.
	var failure struct {
		Error string `json:"error"`
	}
	if s := c.doJSON("GET", "/v1/tenants/ghost", "", nil, &failure); s != http.StatusNotFound || !strings.Contains(failure.Error, "ghost") {
		t.Fatalf("unknown tenant: status %d (want 404), error %q", s, failure.Error)
	}
	if s, _ := c.do("POST", "/v1/tenants", "", map[string]string{"id": "acme", "scenario": "enterprise"}); s != http.StatusCreated {
		t.Fatal("create tenant failed")
	}
	if s, _ := c.do("GET", "/v1/tenants/acme/sessions/S-9999", "tok", nil); s != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", s)
	}
	// Bad request body is 400.
	req, _ := http.NewRequest("POST", srv.URL+"/v1/tenants", strings.NewReader("{not json"))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}
	checkFraming(t, "bad body", resp, raw)

	// Expired session is 410.
	var tk struct {
		ID string `json:"id"`
	}
	if s := c.doJSON("POST", "/v1/tenants/acme/issues/vlan", "", nil, &tk); s != http.StatusCreated {
		t.Fatal("inject issue failed")
	}
	var info Info
	if s := c.doJSON("POST", "/v1/tenants/acme/sessions", "", map[string]string{"technician": "bob", "ticket": tk.ID}, &info); s != http.StatusCreated {
		t.Fatal("create session failed")
	}

	// A body over 1 MiB is 413, refused before the twin or the trail see it.
	tn, err := svc.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	trail := tn.System().Enforcer.Trail()
	before := trail.Len()
	execPath := "/v1/tenants/acme/sessions/" + info.Session + "/exec"
	if s, out := c.do("POST", execPath, info.Token,
		map[string]string{"device": info.Slice[0], "line": "show ip route " + strings.Repeat("x", maxBodyBytes)}); s != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized exec: status %d, want 413 (%s)", s, out)
	}
	if trail.Len() != before {
		t.Fatalf("oversized exec reached the audit trail: %d entries, was %d", trail.Len(), before)
	}
	if s, _ := c.do("POST", execPath, info.Token, map[string]string{"device": info.Slice[0], "line": "show ip route"}); s != http.StatusOK {
		t.Fatalf("exec after the refused one: status %d", s)
	}
	if trail.Len() == before {
		t.Fatal("a served exec left no audit record: the 413 check proves nothing")
	}

	vc.Advance(2 * time.Minute)
	if s, _ := c.do("POST", "/v1/tenants/acme/sessions/"+info.Session+"/exec", info.Token,
		map[string]string{"device": info.Slice[0], "line": "show ip route"}); s != http.StatusGone {
		t.Fatalf("expired exec: status %d, want 410", s)
	}

	// Denied command (outside privilege) is 403: a VLAN ticket's spec does
	// not grant ACL writes, even on the suspect device itself.
	var tk2 struct {
		ID       string   `json:"id"`
		Suspects []string `json:"suspects"`
	}
	if s := c.doJSON("POST", "/v1/tenants/acme/issues/vlan", "", nil, &tk2); s != http.StatusCreated {
		t.Fatal("second inject failed")
	}
	if len(tk2.Suspects) == 0 {
		t.Fatal("vlan ticket has no suspects")
	}
	if s := c.doJSON("POST", "/v1/tenants/acme/sessions", "", map[string]string{"technician": "eve", "ticket": tk2.ID}, &info); s != http.StatusCreated {
		t.Fatal("second session failed")
	}
	if s, out := c.do("POST", "/v1/tenants/acme/sessions/"+info.Session+"/exec", info.Token,
		map[string]string{"device": tk2.Suspects[0], "line": "access-list EDGE 10 permit ip any any"}); s != http.StatusForbidden {
		t.Fatalf("denied exec: status %d, want 403 (%s)", s, out)
	}
}

func TestHTTPReviewOverloadIs429(t *testing.T) {
	svc := New(Config{VerifyWorkers: 1, VerifyQueue: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := &httpClient{t: t, srv: srv}

	if s, _ := c.do("POST", "/v1/tenants", "", map[string]string{"id": "acme", "scenario": "university"}); s != http.StatusCreated {
		t.Fatal("create tenant failed")
	}
	var tk struct {
		ID string `json:"id"`
	}
	if s := c.doJSON("POST", "/v1/tenants/acme/issues/acl", "", nil, &tk); s != http.StatusCreated {
		t.Fatal("inject issue failed")
	}
	var info Info
	if s := c.doJSON("POST", "/v1/tenants/acme/sessions", "", map[string]string{"technician": "alice", "ticket": tk.ID}, &info); s != http.StatusCreated {
		t.Fatal("create session failed")
	}

	// Saturate the pool directly (1 worker blocked + 1 queued), then hit
	// the review endpoint: it must fail fast with 429.
	release := make(chan struct{})
	started := make(chan struct{})
	go func() { _ = svc.pool.Do("acme", func() { close(started); <-release }) }()
	<-started
	queued := make(chan error, 1)
	go func() { queued <- svc.pool.Do("acme", func() {}) }()
	waitDepth(t, svc.pool, 1)

	s, out := c.do("POST", "/v1/tenants/acme/sessions/"+info.Session+"/review", info.Token, nil)
	if s != http.StatusTooManyRequests {
		t.Fatalf("overloaded review: status %d, want 429 (%s)", s, out)
	}
	close(release)
	if err := <-queued; err != nil {
		t.Fatalf("queued pool task failed: %v", err)
	}
}

// Replies are encoded into pooled buffers: technicians on two sessions
// reading different devices at once must each get their own bytes, whole,
// however the buffers are recycled between them (run under -race in CI).
func TestHTTPConcurrentRepliesOwnTheirBytes(t *testing.T) {
	svc := New(Config{PlatformSeed: "http-pool"})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := &httpClient{t: t, srv: srv}

	if s, _ := c.do("POST", "/v1/tenants", "", map[string]string{"id": "acme", "scenario": "university"}); s != http.StatusCreated {
		t.Fatal("create tenant failed")
	}
	type read struct {
		path, token string
		body        map[string]string
		want        []byte
	}
	var reads []read
	for _, tech := range []string{"alice", "bob"} {
		var tk struct {
			ID string `json:"id"`
		}
		if s := c.doJSON("POST", "/v1/tenants/acme/issues/acl", "", nil, &tk); s != http.StatusCreated {
			t.Fatal("inject issue failed")
		}
		var info Info
		if s := c.doJSON("POST", "/v1/tenants/acme/sessions", "", map[string]string{"technician": tech, "ticket": tk.ID}, &info); s != http.StatusCreated {
			t.Fatal("create session failed")
		}
		for _, dev := range info.Slice {
			for _, line := range []string{"show running-config", "show ip route", "show vlan"} {
				r := read{path: "/v1/tenants/acme/sessions/" + info.Session + "/exec", token: info.Token,
					body: map[string]string{"device": dev, "line": line}}
				var s int
				if s, r.want = c.do("POST", r.path, r.token, r.body); s != http.StatusOK {
					t.Fatalf("%s on %s: status %d: %s", line, dev, s, r.want)
				}
				reads = append(reads, r)
			}
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the reads (and a refused one, for the error
			// path's buffer) at its own stride, so sizes interleave.
			for i := 0; i < 2*len(reads); i++ {
				r := reads[(w+i*(w+1))%len(reads)]
				if s, got, err := c.try("POST", r.path, r.token, r.body); err != nil || s != http.StatusOK || !bytes.Equal(got, r.want) {
					t.Errorf("worker %d: %v: status %d, %v, reply differs from the serial one:\n%s\nvs\n%s", w, r.body, s, err, got, r.want)
					return
				}
				if s, got, err := c.try("POST", r.path, "wrong-token", r.body); err != nil || s != http.StatusForbidden || !bytes.Contains(got, []byte(`{"error":`)) {
					t.Errorf("worker %d: bad-token exec: status %d, %v: %s", w, s, err, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
