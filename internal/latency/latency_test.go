package latency

import (
	"strings"
	"testing"
	"time"
)

func TestCurrentBreakdown(t *testing.T) {
	m := Default()
	b := m.Current("isp", 6)
	if b.Approach != "Current" || b.Issue != "isp" {
		t.Fatalf("breakdown = %+v", b)
	}
	want := m.Connect + 6*m.Command + m.Save
	if b.Total() != want {
		t.Fatalf("Total = %v, want %v", b.Total(), want)
	}
	if b.Step("operate") != 6*m.Command {
		t.Fatalf("operate = %v", b.Step("operate"))
	}
	if b.Step("nonexistent") != 0 {
		t.Fatal("missing step should be zero")
	}
}

func TestHeimdallBreakdownAndOverhead(t *testing.T) {
	m := Default()
	cur := m.Current("vlan", 11)
	hd := m.Heimdall("vlan", 11, 4, 2, 21, 1)

	twin := m.TwinSetupBase + 4*m.TwinSetupPerDevice + 2*m.TwinSetupPerSwitch
	if hd.Step("twin-setup") != twin {
		t.Fatalf("twin-setup = %v, want %v", hd.Step("twin-setup"), twin)
	}
	if hd.Step("verify") != 21*m.VerifyPerPolicy {
		t.Fatalf("verify = %v", hd.Step("verify"))
	}
	// The operate step is identical across approaches; overhead is the sum
	// of Heimdall's extra steps.
	extra := m.GenPrivilege + twin + 21*m.VerifyPerPolicy + 1*m.SchedulePerChange
	if got := Overhead(cur, hd); got != extra {
		t.Fatalf("Overhead = %v, want %v", got, extra)
	}
	if !strings.Contains(hd.String(), "twin-setup") {
		t.Fatalf("String = %q", hd.String())
	}
}

func TestCalibrationMatchesPaperAnchors(t *testing.T) {
	m := Default()
	// §4.3: checking 175 constraints ≈ 25 s.
	verify175 := 175 * m.VerifyPerPolicy
	if verify175 < 24*time.Second || verify175 > 26*time.Second {
		t.Fatalf("175-policy verify = %v, want ≈25s", verify175)
	}
}

// Step returns the duration of the named step (0 when absent).
func (b *Breakdown) Step(name string) time.Duration {
	for _, s := range b.Steps {
		if s.Name == name {
			return s.Duration
		}
	}
	return 0
}
