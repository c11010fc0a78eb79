package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for heimdallctl: re-executed with
// runAsMain set it runs main() on its arguments, so the tests below see the
// exit codes and output a user does.
const runAsMain = "HEIMDALLCTL_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func heimdallctl(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestJournalRoundTrip: a journal exported by a workflow verifies under the
// key the workflow printed, its dump shows what each change's undo
// restores, and every journal subcommand refuses an export
// carrying bytes the chain does not cover — keyed or not, because the file
// is read by the chain's strict decoder.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "j.json")
	out, err := heimdallctl("workflow", "-scenario", "university", "-issue", "acl", "-export-journal", good)
	if err != nil {
		t.Fatalf("workflow: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`-key ([0-9a-f]+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("workflow did not print the journal key:\n%s", out)
	}
	key := m[1]
	if out, err := heimdallctl("journal", "verify", "-in", good, "-key", key); err != nil || !strings.HasPrefix(out, "OK: 3 records") {
		t.Fatalf("verify of an untouched export: %v\n%s", err, out)
	}
	// dump prints each intent's changes under it, with what undoing each
	// puts back: the workflow's fix removes one SENSITIVE-15 entry, so its
	// undo is the four-entry ACL as it was.
	out, err = heimdallctl("journal", "dump", "-in", good, "-key", key)
	if lines := strings.Split(out, "\n"); err != nil || len(lines) < 3 || !strings.HasPrefix(lines[1], "#0   intent") ||
		lines[2] != "      0  r2 remove-acl-entry: SENSITIVE-15 seq 5  [undo: restore acl SENSITIVE-15 (4 entries)]" {
		t.Fatalf("dump of an untouched export: %v\n%s", err, out)
	}
	if out, err := heimdallctl("journal", "verify", "-in", good, "-key", strings.Repeat("00", 32)); err == nil {
		t.Fatalf("verify under the wrong key succeeded:\n%s", out)
	}

	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, forged := range map[string]string{
		"unknown-field": strings.Replace(string(data), `"index": 0,`, `"index": 0, "note": "approved by the customer",`, 1),
		"trailing-data": string(data) + ` {"index": 3}`,
	} {
		if forged == string(data) {
			t.Fatalf("%s: export format changed, nothing to rewrite", name)
		}
		bad := filepath.Join(dir, name+".json")
		if err := os.WriteFile(bad, []byte(forged), 0o600); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"journal", "verify", "-in", bad, "-key", key},
			{"journal", "dump", "-in", bad},
			{"journal", "diff", "-a", good, "-b", bad},
		} {
			if out, err := heimdallctl(args...); err == nil {
				t.Errorf("%s: heimdallctl %s succeeded:\n%s", name, strings.Join(args[:2], " "), out)
			}
		}
	}
}
