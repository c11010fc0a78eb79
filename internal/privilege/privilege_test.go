package privilege

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatchPath(t *testing.T) {
	cases := []struct {
		pattern, value string
		sep            byte
		want           bool
	}{
		{"*", "anything:at:all", ':', true},
		{"device:r1", "device:r1", ':', true},
		{"device:r1", "device:r1:interface:Gi0/0", ':', true}, // hierarchical prefix
		{"device:*", "device:r9:acl:X", ':', true},
		{"device:r1:interface:*", "device:r1:interface:Gi0/0", ':', true},
		{"device:r1:interface:Gi0/0", "device:r1", ':', false}, // pattern longer than value
		{"device:r2", "device:r1", ':', false},
		{"show.*", "show.ip.route", '.', true},
		{"show", "show.run", '.', true},
		{"config.acl.*", "config.acl.add", '.', true},
		{"config.acl.*", "config.interface.set", '.', false},
	}
	for _, tc := range cases {
		if got := matchPath(tc.pattern, tc.value, tc.sep); got != tc.want {
			t.Errorf("matchPath(%q, %q) = %v, want %v", tc.pattern, tc.value, got, tc.want)
		}
	}
}

func TestEvaluateDenyOverridesAndDefaultDeny(t *testing.T) {
	s := &Spec{Ticket: "T1", Technician: "alice", Rules: []Rule{
		{Effect: AllowEffect, Action: "show.*", Resource: "device:*"},
		{Effect: AllowEffect, Action: "config.acl.*", Resource: "device:r3"},
		{Effect: DenyEffect, Action: "*", Resource: "device:h3"},
	}}
	if !s.Allows("show.ip.route", "device:r1") {
		t.Error("show on r1 should be allowed")
	}
	if !s.Allows("config.acl.add", "device:r3:acl:CORE-IN") {
		t.Error("acl config on r3 should be allowed")
	}
	if s.Allows("config.acl.add", "device:r1") {
		t.Error("acl config on r1 should be default-denied")
	}
	if s.Allows("show.run", "device:h3") {
		t.Error("deny must override the show allow on h3")
	}
	if s.Allows("config.interface.set", "device:r3:interface:Gi0/0") {
		t.Error("interface config not granted anywhere")
	}
}

func TestAllowedOnAndDevices(t *testing.T) {
	s := &Spec{Rules: []Rule{
		{Effect: AllowEffect, Action: "show.*", Resource: "device:r1"},
		{Effect: AllowEffect, Action: "config.acl.*", Resource: "device:r2"},
		{Effect: DenyEffect, Action: "*", Resource: "device:h9"},
	}}
	if got := s.Devices(); !reflect.DeepEqual(got, []string{"r1", "r2"}) {
		t.Errorf("Devices = %v", got)
	}
}

func TestParseSpecTextDSL(t *testing.T) {
	text := `
# privileges for ticket T42
allow(show.*, device:*)
allow(config.interface.set, device:r3:interface:Gi0/1)
deny(config.acl.*, device:r3)
`
	s, err := ParseSpec("T42", "bob", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 3 || s.Ticket != "T42" || s.Technician != "bob" {
		t.Fatalf("spec = %+v", s)
	}
	if s.Rules[2].Effect != DenyEffect || s.Rules[2].Action != "config.acl.*" {
		t.Fatalf("rule 3 = %+v", s.Rules[2])
	}
	// Round trip through String().
	s2, err := ParseSpec("T42", "bob", s.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Rules, s2.Rules) {
		t.Fatalf("DSL round trip: %v vs %v", s.Rules, s2.Rules)
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		"allow show.*, device:*",
		"permit(show.*, device:*)",
		"allow(show.*)",
		"allow(, device:*)",
		"allow(show.*, )",
		"allow(show.*, device:*",
	}
	for _, line := range bad {
		if _, err := ParseRule(line); err == nil {
			t.Errorf("ParseRule(%q): expected error", line)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := &Spec{Ticket: "T7", Technician: "carol", Rules: []Rule{
		{Effect: AllowEffect, Action: "show.*", Resource: "device:r1"},
		{Effect: DenyEffect, Action: "*", Resource: "device:h3"},
	}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*s, back) {
		t.Fatalf("JSON round trip: %+v vs %+v", *s, back)
	}
	for _, bad := range []string{
		`{"ticket":"T","technician":"x","rules":[{"effect":"maybe","action":"a","resource":"r"}]}`,
		`{"ticket":"T","technician":"x","rules":[{"effect":"allow","action":"","resource":"r"}]}`,
	} {
		var s2 Spec
		if err := json.Unmarshal([]byte(bad), &s2); err == nil {
			t.Errorf("bad JSON accepted: %s", bad)
		}
	}
}

func TestGenerateTemplate(t *testing.T) {
	s, err := Generate(TemplateInput{
		Ticket: "T1", Technician: "alice", Kind: TaskACL,
		Scope:     []string{"r1", "r2", "r3"},
		Suspects:  []string{"r3"},
		Sensitive: []string{"h3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Read everywhere in scope.
	for _, dev := range []string{"r1", "r2", "r3"} {
		if !s.Allows("show.ip.route", "device:"+dev) {
			t.Errorf("show should be allowed on %s", dev)
		}
	}
	// ACL writes only on the suspect.
	if !s.Allows("config.acl.add", "device:r3:acl:X") {
		t.Error("acl write on suspect r3 should be allowed")
	}
	if s.Allows("config.acl.add", "device:r1") {
		t.Error("acl write on r1 should be denied")
	}
	// Kind-scoped: no interface shutdown privileges on an ACL ticket.
	if s.Allows("config.interface.set", "device:r3:interface:Gi0/0") {
		t.Error("interface write should not come with an ACL ticket")
	}
	// Sensitive devices stay dark even for reads.
	if s.Allows("show.run", "device:h3") {
		t.Error("sensitive device should be denied")
	}

	if _, err := Generate(TemplateInput{Ticket: "", Technician: "x", Kind: TaskACL}); err == nil {
		t.Error("empty ticket accepted")
	}
	if _, err := Generate(TemplateInput{Ticket: "T", Technician: "x", Kind: "bogus"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMonitoringTemplateIsReadOnly(t *testing.T) {
	s, err := Generate(TemplateInput{
		Ticket: "T2", Technician: "bob", Kind: TaskMonitoring,
		Scope: []string{"r1"}, Suspects: []string{"r1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Allows("show.interfaces", "device:r1") {
		t.Error("monitoring should read")
	}
	for _, a := range []string{"config.acl.add", "config.interface.set", "config.route.add"} {
		if s.Allows(a, "device:r1") {
			t.Errorf("monitoring must not allow %s", a)
		}
	}
}

func TestEscalationFlow(t *testing.T) {
	s, _ := Generate(TemplateInput{
		Ticket: "T3", Technician: "eve", Kind: TaskOSPF,
		Scope: []string{"r1", "r2"}, Suspects: []string{"r2"},
	})
	if s.Allows("config.acl.add", "device:r2") {
		t.Fatal("ACL write should start denied on an OSPF ticket")
	}
	esc := s.RequestEscalation(Rule{Effect: AllowEffect, Action: "config.acl.*", Resource: "device:r2"},
		"routing fine; firewall rule suspected")
	if esc.Approved {
		t.Fatal("escalation pre-approved")
	}
	if err := s.Approve(esc); err != nil {
		t.Fatal(err)
	}
	if !esc.Approved || !s.Allows("config.acl.add", "device:r2") {
		t.Fatal("approved escalation should take effect")
	}

	// Wrong ticket and deny escalations are rejected.
	other := &Escalation{Ticket: "T9", Rule: Rule{Effect: AllowEffect, Action: "a", Resource: "r"}}
	if err := s.Approve(other); err == nil {
		t.Error("cross-ticket escalation accepted")
	}
	bad := s.RequestEscalation(Rule{Effect: DenyEffect, Action: "a", Resource: "r"}, "")
	if err := s.Approve(bad); err == nil {
		t.Error("deny escalation accepted")
	}
}

// Property: Evaluate never allows anything an empty spec was asked about,
// and adding a deny rule never widens the allowed set.
func TestDenyMonotonicityProperty(t *testing.T) {
	empty := &Spec{}
	f := func(action, resource string) bool {
		return !empty.Allows(action, resource)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	base := &Spec{Rules: []Rule{
		{Effect: AllowEffect, Action: "show.*", Resource: "device:*"},
		{Effect: AllowEffect, Action: "config.*", Resource: "device:r1"},
	}}
	withDeny := &Spec{Rules: append(append([]Rule(nil), base.Rules...),
		Rule{Effect: DenyEffect, Action: "config.*", Resource: "device:r1:acl:SECRET"})}
	actions := []string{"show.run", "config.acl.add", "config.interface.set"}
	resources := []string{"device:r1", "device:r1:acl:SECRET", "device:r2", "device:r1:interface:Gi0/0"}
	for _, a := range actions {
		for _, r := range resources {
			if withDeny.Allows(a, r) && !base.Allows(a, r) {
				t.Fatalf("deny rule widened access for (%s, %s)", a, r)
			}
		}
	}
	if withDeny.Allows("config.acl.add", "device:r1:acl:SECRET") {
		t.Fatal("deny rule ineffective")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Effect: AllowEffect, Action: "show.*", Resource: "device:r1"}
	if got := r.String(); got != "allow(show.*, device:r1)" {
		t.Fatalf("Rule.String = %q", got)
	}
	if !strings.Contains((&Spec{Ticket: "T", Technician: "u", Rules: []Rule{r}}).String(), "allow(show.*, device:r1)") {
		t.Fatal("Spec.String missing rule")
	}
}
