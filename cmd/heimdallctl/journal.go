package main

// The journal subcommand inspects exported commit journals offline — the
// auditor-side counterpart of the enforcer's write-ahead journal:
//
//	heimdallctl journal dump   -in commit.journal [-key HEX]
//	heimdallctl journal verify -in commit.journal -key HEX
//	heimdallctl journal diff   -a before.journal -b after.journal [-key HEX]
//
// dump prints the chain human-readably, each change with what its undo
// restores (and authenticates it when the key is supplied); verify
// authenticates the chain and prints its head; diff compares two exports
// record-by-record and reports whether one is a prefix of the other (the
// shape a crash or a stale copy leaves) or where they diverge (the shape a
// forgery leaves).

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"heimdall/internal/chain"
	"heimdall/internal/journal"
)

func runJournal(args []string) {
	if len(args) < 1 {
		journalUsage()
	}
	sub := args[0]
	fs := flag.NewFlagSet("journal "+sub, flag.ExitOnError)
	in := fs.String("in", "", "journal export to read")
	fileA := fs.String("a", "", "first journal export (diff)")
	fileB := fs.String("b", "", "second journal export (diff)")
	keyHex := fs.String("key", "", "hex journal HMAC key (from the enclave, released to the auditor)")
	if err := fs.Parse(args[1:]); err != nil {
		os.Exit(2)
	}
	var key []byte
	if *keyHex != "" {
		var err error
		if key, err = hex.DecodeString(*keyHex); err != nil {
			log.Fatalf("bad -key: %v", err)
		}
	}
	switch sub {
	case "dump":
		journalDump(readJournal(*in, "-in"), key)
	case "verify":
		if key == nil {
			log.Fatal("journal verify needs -key")
		}
		records := readJournal(*in, "-in")
		if err := chain.Verify(records, key); err != nil {
			log.Fatalf("FAIL: %v", err)
		}
		h := chain.HeadOf(records)
		fmt.Printf("OK: %d records, head #%d %s\n", len(records), h.Index, short(h.Hash))
	case "diff":
		journalDiff(readJournal(*fileA, "-a"), readJournal(*fileB, "-b"), key)
	default:
		journalUsage()
	}
}

func journalUsage() {
	fmt.Fprintln(os.Stderr, "usage: heimdallctl journal dump   -in FILE [-key HEX]")
	fmt.Fprintln(os.Stderr, "       heimdallctl journal verify -in FILE -key HEX")
	fmt.Fprintln(os.Stderr, "       heimdallctl journal diff   -a FILE -b FILE [-key HEX]")
	os.Exit(2)
}

// readJournal loads an export with the chain's strict decoder, so bytes
// the chain does not cover (an unknown field, anything after the document)
// are refused here whether or not a key is given; authentication happens
// in the caller when one is.
func readJournal(path, flagName string) []journal.Record {
	if path == "" {
		log.Fatalf("journal: missing %s FILE", flagName)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	records, err := chain.Decode[journal.Record](data)
	if err != nil {
		log.Fatalf("%s: not a journal export: %v", path, err)
	}
	return records
}

func journalDump(records []journal.Record, key []byte) {
	authed := "unauthenticated (no -key)"
	if key != nil {
		if err := chain.Verify(records, key); err != nil {
			log.Fatalf("FAIL: %v", err)
		}
		authed = "chain verified"
	}
	fmt.Printf("%d records, %s\n", len(records), authed)
	for _, r := range records {
		var extra []string
		if len(r.Changes) > 0 {
			extra = append(extra, fmt.Sprintf("%d changes", len(r.Changes)))
		}
		for _, a := range r.Approvals {
			extra = append(extra, fmt.Sprintf("approved by %s/%s", a.Signer, a.Role))
		}
		if r.ChangeIndex >= 0 {
			extra = append(extra, fmt.Sprintf("change %d", r.ChangeIndex))
		}
		if len(r.Restored) > 0 {
			extra = append(extra, fmt.Sprintf("restored %v", r.Restored))
		}
		if len(r.Unrestored) > 0 {
			extra = append(extra, fmt.Sprintf("UNRESTORED %v", r.Unrestored))
		}
		suffix := ""
		if len(extra) > 0 {
			suffix = " (" + strings.Join(extra, ", ") + ")"
		}
		fmt.Printf("#%-3d %-12s %-8s %s%s\n", r.Index, r.Kind, r.Commit, r.Detail, suffix)
		for i, c := range r.Changes {
			undo := "no undo"
			if i < len(r.Undos) {
				undo = r.Undos[i].String()
			}
			fmt.Printf("     %2d  %s  [undo: %s]\n", i, c, undo)
		}
	}
	h := chain.HeadOf(records)
	fmt.Printf("head: #%d %s\n", h.Index, short(h.Hash))
}

func journalDiff(a, b []journal.Record, key []byte) {
	if key != nil {
		if err := chain.Verify(a, key); err != nil {
			log.Fatalf("FAIL (-a): %v", err)
		}
		if err := chain.Verify(b, key); err != nil {
			log.Fatalf("FAIL (-b): %v", err)
		}
	}
	d := journal.Diff(a, b)
	fmt.Println(d.String())
	if !d.Equal() {
		os.Exit(1)
	}
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
