// Remote mode: every subcommand here talks to a running heimdalld over
// its HTTP JSON API instead of building an in-process deployment.
// Selected with -server:
//
//	heimdallctl tenants  -server http://127.0.0.1:8787
//	heimdallctl sessions -server http://127.0.0.1:8787 -tenant acme
//	heimdallctl tickets  -server http://127.0.0.1:8787 -tenant acme
//	heimdallctl exec     -server ... -tenant acme -session S-0001 -token <tok> -device r3 -line "show ip route"
//	heimdallctl workflow -server ... -tenant acme -scenario university -issue acl
//	heimdallctl metrics  -server ...
//	heimdallctl pool     -server ...
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"heimdall/internal/service"
	"heimdall/internal/ticket"
)

// remoteClient is a minimal JSON client for the heimdalld API.
type remoteClient struct {
	base string
	http *http.Client
}

func newRemoteClient(server string) *remoteClient {
	return &remoteClient{base: strings.TrimRight(server, "/"), http: http.DefaultClient}
}

// call performs one API request; a non-2xx response becomes an error
// carrying the server's error payload.
func (c *remoteClient) call(method, path, token string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set(service.TokenHeader, token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s %s: %s (HTTP %d)", method, path, apiErr.Error, resp.StatusCode)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

func remoteTenants(c *remoteClient) {
	var tenants []service.TenantInfo
	if err := c.call("GET", "/v1/tenants", "", nil, &tenants); err != nil {
		log.Fatal(err)
	}
	if len(tenants) == 0 {
		fmt.Println("no tenants")
		return
	}
	for _, t := range tenants {
		fmt.Printf("%-12s %-12s %3d devices  %3d tickets  %3d sessions\n",
			t.ID, t.Scenario, t.Devices, t.Tickets, t.Sessions)
	}
}

func remoteSessions(c *remoteClient, tenant string) {
	if tenant == "" {
		log.Fatal("sessions needs -tenant")
	}
	var infos []service.Info
	if err := c.call("GET", "/v1/tenants/"+tenant+"/sessions", "", nil, &infos); err != nil {
		log.Fatal(err)
	}
	if len(infos) == 0 {
		fmt.Printf("no sessions under tenant %s\n", tenant)
		return
	}
	for _, s := range infos {
		fmt.Printf("%-8s %-16s %-8s %-8s %4d commands  last active %s\n",
			s.Session, s.Technician, s.Ticket, s.State, s.Commands,
			s.LastActive.Format("15:04:05"))
	}
}

func remoteTickets(c *remoteClient, tenant string) {
	if tenant == "" {
		log.Fatal("tickets needs -tenant")
	}
	var tks []ticket.Ticket
	if err := c.call("GET", "/v1/tenants/"+tenant+"/tickets", "", nil, &tks); err != nil {
		log.Fatal(err)
	}
	if len(tks) == 0 {
		fmt.Printf("no tickets under tenant %s\n", tenant)
		return
	}
	for _, tk := range tks {
		fmt.Printf("%-8s %-12s %s\n", tk.ID, tk.Status, tk.Summary)
	}
}

func remoteExec(c *remoteClient, tenant, session, token, device, line string) {
	if tenant == "" || session == "" || token == "" || device == "" || line == "" {
		log.Fatal("remote exec needs -tenant, -session, -token, -device and -line")
	}
	var out struct {
		Output string `json:"output"`
	}
	err := c.call("POST", "/v1/tenants/"+tenant+"/sessions/"+session+"/exec", token,
		map[string]string{"device": device, "line": line}, &out)
	if err != nil {
		log.Fatal(err)
	}
	if out.Output != "" {
		fmt.Println(out.Output)
	}
}

func (c *remoteClient) fetchMetrics() string {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET /metrics: HTTP %d: %s", resp.StatusCode, raw)
	}
	return string(raw)
}

func remoteMetrics(c *remoteClient) {
	fmt.Print(c.fetchMetrics())
}

// metricSample is one parsed Prometheus text-format line.
type metricSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseMetrics parses the Prometheus text format far enough for the pool
// view: `name{k="v",...} value` and `name value` lines; comments, HELP/TYPE
// and histogram buckets pass through as ordinary samples the caller
// ignores by name.
func parseMetrics(text string) []metricSample {
	var out []metricSample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		val, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
		if err != nil {
			continue
		}
		s := metricSample{name: line[:sp], value: val, labels: map[string]string{}}
		if br := strings.IndexByte(s.name, '{'); br >= 0 {
			inner := strings.TrimSuffix(s.name[br+1:], "}")
			s.name = s.name[:br]
			for _, kv := range strings.Split(inner, ",") {
				if eq := strings.IndexByte(kv, '='); eq > 0 {
					s.labels[kv[:eq]] = strings.Trim(kv[eq+1:], `"`)
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// remotePool renders the verify pool's health from one /metrics scrape:
// global queue depth and backpressure, the review cache hits as the
// service and the enforcer count them (the enforcer's misses are the fresh
// verifications), the production
// snapshot and how many policy verdicts were carried from it, which
// ancestor commits handed production's next snapshot over from, and the
// per-tenant queue backlog.
func remotePool(c *remoteClient) {
	samples := parseMetrics(c.fetchMetrics())
	sum := func(name string, from ...string) float64 {
		total := 0.0
		for _, s := range samples {
			if s.name == name && (len(from) == 0 || s.labels["from"] == from[0]) {
				total += s.value
			}
		}
		return total
	}
	fmt.Println("verify pool")
	fmt.Printf("  %-28s %8.0f\n", "queue depth", sum("heimdall_service_queue_depth"))
	fmt.Printf("  %-28s %8.0f\n", "backpressure (total)", sum("heimdall_service_backpressure_total"))
	fmt.Printf("  %-28s %8.0f\n", "review cache hits", sum("heimdall_service_review_cache_hits_total"))
	hits, misses := sum("heimdall_enforcer_review_cache_hits_total"), sum("heimdall_enforcer_review_cache_misses_total")
	fmt.Printf("  %-28s %8.0f hits / %.0f misses\n", "enforcer review cache", hits, misses)
	hits, misses = sum("heimdall_enforcer_prod_snapshot_hits_total"), sum("heimdall_enforcer_prod_snapshot_misses_total")
	fmt.Printf("  %-28s %8.0f hits / %.0f misses / %.0f derived\n", "production snapshot", hits, misses,
		sum("heimdall_enforcer_prod_snapshot_derived_total"))
	fmt.Printf("  %-28s %8.0f of %.0f policies checked\n", "verdicts carried",
		sum("heimdall_verify_policies_carried_total"), sum("heimdall_verify_policies_checked_total"))
	handover := "heimdall_enforcer_commit_handover_total"
	fmt.Printf("  %-28s %8.0f from review / %.0f from production / %.0f computed\n", "commit hand-over",
		sum(handover, "review"), sum(handover, "production"), sum(handover, "computed"))

	backlog := map[string]float64{}
	for _, s := range samples {
		if s.name == "heimdall_service_tenant_queue_depth" {
			backlog[s.labels["tenant"]] += s.value
		}
	}
	if len(backlog) == 0 {
		fmt.Println("per-tenant backlog: none recorded")
		return
	}
	tenants := make([]string, 0, len(backlog))
	for t := range backlog {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	fmt.Println("per-tenant backlog")
	for _, t := range tenants {
		fmt.Printf("  %-28s %8.0f\n", t, backlog[t])
	}
}

// remoteWorkflow drives a full scripted ticket against heimdalld: onboard
// the tenant (reusing it if it already exists), inject the issue, open a
// mediated session, replay the issue's diagnosis+fix script, review and
// commit. The script comes from the client's built-in scenario catalog —
// the server only ever sees mediated console commands.
func remoteWorkflow(c *remoteClient, tenant, scenName, issueName, technician string) {
	if tenant == "" {
		log.Fatal("remote workflow needs -tenant")
	}
	if issueName == "" {
		log.Fatal("workflow needs -issue")
	}
	scen := loadScenario(scenName)
	issue := findIssue(scen, issueName)

	var tinfo service.TenantInfo
	err := c.call("POST", "/v1/tenants", "", map[string]string{"id": tenant, "scenario": scenName}, &tinfo)
	switch {
	case err == nil:
		fmt.Printf("tenant %s onboarded (%s, %d devices)\n", tinfo.ID, tinfo.Scenario, tinfo.Devices)
	case strings.Contains(err.Error(), "already exists"):
		fmt.Printf("tenant %s already onboarded\n", tenant)
	default:
		log.Fatal(err)
	}

	var tk ticket.Ticket
	if err := c.call("POST", "/v1/tenants/"+tenant+"/issues/"+issueName, "", nil, &tk); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault injected: %s; ticket %s filed\n", issue.Fault.Description, tk.ID)

	var info service.Info
	err = c.call("POST", "/v1/tenants/"+tenant+"/sessions", "",
		map[string]string{"technician": technician, "ticket": tk.ID}, &info)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %s for %s; twin slice: %v\n", info.Session, info.Technician, info.Slice)

	sessPath := "/v1/tenants/" + tenant + "/sessions/" + info.Session
	for _, cmd := range issue.Script {
		var out struct {
			Output string `json:"output"`
		}
		err := c.call("POST", sessPath+"/exec", info.Token,
			map[string]string{"device": cmd.Device, "line": cmd.Line}, &out)
		if err != nil {
			log.Fatalf("%s on %s: %v", cmd.Line, cmd.Device, err)
		}
		fmt.Printf("twin %s> %s\n", cmd.Device, cmd.Line)
		if out.Output != "" {
			fmt.Println(indent(out.Output))
		}
	}

	var res service.ReviewResult
	if err := c.call("POST", sessPath+"/commit", info.Token, nil, &res); err != nil {
		log.Fatal(err)
	}
	if !res.Committed {
		log.Fatalf("commit refused: %s (violations: %v)", res.Reason, res.Violations)
	}
	fmt.Printf("enforcer: %s (%d policies checked); ticket -> %s\n", res.Reason, res.Checked, res.Status)
	if err := c.call("DELETE", sessPath, info.Token, nil, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %s closed\n", info.Session)
}
