package main

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The reference: a fixed amount of standard-library work behind the same
// kind of socket as heimdalld, in a process of its own on the same CPU,
// asked for between the workload's requests. It contains no heimdall code,
// so no change to heimdall moves it; what moves it is the machine. On a
// shared VM the neighbours slow allocation- and syscall-heavy Go code by
// up to half for seconds or minutes at a time (a register-only loop does
// not notice), and the reference slows with the workload. The window
// divides its times by the reference's, see window.go.

// referenceNominalMS is the reference's quiet round trip on the box the
// bounds were measured on when nothing else ran. It only fixes the scale:
// reported times read as milliseconds on that box when calm.
const referenceNominalMS = 0.85

// referenceArg as first argument makes the benchmark binary the reference
// server.
const referenceArg = "reference-server"

type referenceNode struct {
	Name  string            `json:"name"`
	Addr  string            `json:"addr"`
	Attrs map[string]string `json:"attrs"`
	Next  []int             `json:"next"`
}

// referenceWork is what heimdalld's requests are made of, from the
// standard library only: small allocations, map inserts and lookups,
// formatting, a sort, pretty-printed JSON out (about 6 KB) and back in,
// an HMAC over it.
func referenceWork() []byte {
	const n = 40
	byName := make(map[string]*referenceNode)
	var names []string
	for i := 0; i < n; i++ {
		node := &referenceNode{Name: "r" + strconv.Itoa(i), Addr: fmt.Sprintf("10.%d.%d.1", i/8, i%8),
			Attrs: map[string]string{"k": strings.Repeat("v", i%7)}}
		for j := 0; j < 3; j++ {
			node.Next = append(node.Next, (i*7+j)%n)
		}
		byName[node.Name] = node
		names = append(names, node.Name)
	}
	sort.Strings(names)
	nodes := make([]*referenceNode, 0, n)
	for _, name := range names {
		nodes = append(nodes, byName[name])
	}
	doc, _ := json.MarshalIndent(nodes, "", "  ") // strings and ints: cannot fail
	mac := hmac.New(sha256.New, []byte("heimdall-bench-reference"))
	mac.Write(doc)
	var back []referenceNode
	_ = json.Unmarshal(doc, &back) // its own output
	return mac.Sum(doc)
}

// referenceMain serves the reference until killed.
func referenceMain(args []string) int {
	fs := flag.NewFlagSet(referenceArg, flag.ContinueOnError)
	addr := fs.String("addr", "", "listen address")
	if fs.Parse(args) != nil {
		return 2
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /reference", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a few bytes from our own client
		var doc []byte
		for i := 0; i < 4; i++ { // about as long as a review's worth of round trip
			doc = referenceWork()
		}
		_, _ = w.Write(doc) // the client hung up: nothing to do
	})
	fmt.Fprintln(os.Stderr, http.ListenAndServe(*addr, mux))
	return 1
}

// reference is a running reference server and the client's connection to it.
type reference struct {
	srv    *daemon
	client *http.Client
}

func startReference(root string) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	srv, err := startServer(root, self, referenceArg)
	if err != nil {
		return nil, err
	}
	return &reference{srv: srv, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}, nil
}

// sample times n reference round trips.
func (ref *reference) sample(n int) ([]time.Duration, error) {
	rtt := make([]time.Duration, 0, n)
	for len(rtt) < n {
		d, err := ref.roundTrip()
		if err != nil {
			return nil, err
		}
		rtt = append(rtt, d)
	}
	return rtt, nil
}

func (ref *reference) roundTrip() (time.Duration, error) {
	start := time.Now()
	res, err := ref.client.Post(ref.srv.base+"/reference", "application/json", strings.NewReader(`{"device":"r2","line":"show ip route"}`))
	if err != nil {
		return 0, fmt.Errorf("reference server: %w", err)
	}
	_, err = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("reference server: status %d, %v", res.StatusCode, err)
	}
	return time.Since(start), nil
}
