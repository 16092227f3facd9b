package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// runCLI invokes run() in-process and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"no graph source", nil, "one of -graph or -gen is required"},
		{"both graph sources", []string{"-graph", "x.txt", "-gen", "er:50:100"}, "either -graph or -gen, not both"},
		{"bad generator", []string{"-gen", "er:-50:100"}, "sizes must be positive"},
		{"missing graph file", []string{"-graph", "/no/such/file.txt"}, "no such file"},
		{"zero workers", []string{"-gen", "er:50:100", "-workers", "0"}, "-workers must be >= 1"},
		{"zero inflight", []string{"-gen", "er:50:100", "-max-inflight", "0"}, "-max-inflight must be >= 1"},
		{"negative queue", []string{"-gen", "er:50:100", "-max-queue", "-1"}, "-max-queue must be >= 0"},
		// The deadline rows pass an address that cannot bind, so a run that
		// accepted the deadline exits 1 instead of serving forever.
		{"zero default deadline", []string{"-gen", "er:50:100", "-addr", "127.0.0.1:99999", "-default-deadline", "0s"}, "-default-deadline must be > 0"},
		{"negative max deadline", []string{"-gen", "er:50:100", "-addr", "127.0.0.1:99999", "-max-deadline", "-5s"}, "-max-deadline must be > 0"},
		{"trailing args", []string{"-gen", "er:50:100", "extra"}, "unexpected arguments"},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"negative compact threshold", []string{"-gen", "er:50:100", "-compact-threshold", "-5"}, "-compact-threshold must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code == 0 {
				t.Fatalf("args %v: exit 0, want non-zero", tc.args)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Fatalf("args %v: stderr %q, want it to contain %q", tc.args, stderr, tc.wantMsg)
			}
		})
	}
}

// TestUsageErrorKeepsTraceFile: a run that exits on a usage error leaves an
// existing -trace file as it was.
func TestUsageErrorKeepsTraceFile(t *testing.T) {
	tracePath := t.TempDir() + "/t.jsonl"
	const old = `{"kept":true}` + "\n"
	if err := os.WriteFile(tracePath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-graph", "a.txt", "-gen", "er:50:100", "-trace", tracePath)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr %q", code, stderr)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != old {
		t.Fatalf("trace file is %q after a usage error, want %q", data, old)
	}
}

// TestServeQueryAndSigtermDrain is the end-to-end binary test: boot the
// server on an ephemeral port, answer a count query and a limited stream,
// send the process SIGTERM, and require a clean exit-0 drain.
func TestServeQueryAndSigtermDrain(t *testing.T) {
	addrCh := make(chan string, 1)
	testListenerReady = func(addr string) { addrCh <- addr }
	defer func() { testListenerReady = nil }()

	var wg sync.WaitGroup
	var code int
	var stderr bytes.Buffer
	wg.Add(1)
	go func() {
		defer wg.Done()
		var stdout bytes.Buffer
		code = run([]string{"-gen", "chunglu:400:1600:1.8", "-addr", "127.0.0.1:0", "-workers", "2"}, &stdout, &stderr)
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("server never bound its listener")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/query?pattern=triangle&count_only=1")
	if err != nil {
		t.Fatal(err)
	}
	var cr struct {
		Count   int64  `json:"count"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cr.TraceID == "" {
		t.Fatalf("count query: status %d, body %+v", resp.StatusCode, cr)
	}

	resp, err = http.Get(base + "/query?pattern=triangle&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 0 || !strings.Contains(lines[len(lines)-1], `"done":true`) {
		t.Fatalf("stream did not end with a trailer:\n%s", body)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	if code != 0 {
		t.Fatalf("exit %d after SIGTERM, want 0; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Fatalf("drain not reported:\n%s", stderr.String())
	}
}

// TestServeUpdateEndpoint: the binary accepts mutations on /update and
// reports the new epoch on /stats, with -compact-threshold wired through.
func TestServeUpdateEndpoint(t *testing.T) {
	addrCh := make(chan string, 1)
	testListenerReady = func(addr string) { addrCh <- addr }
	defer func() { testListenerReady = nil }()

	exited := make(chan int, 1)
	go func() {
		var stdout, stderr bytes.Buffer
		exited <- run([]string{"-gen", "er:100:200", "-addr", "127.0.0.1:0", "-compact-threshold", "2"}, &stdout, &stderr)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("server never bound its listener")
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/update", "application/json", strings.NewReader(`{"add":[[0,1],[0,2],[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ur struct {
		Epoch     uint64 `json:"epoch"`
		Compacted bool   `json:"compacted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ur.Epoch != 1 {
		t.Fatalf("update: status %d, %+v", resp.StatusCode, ur)
	}

	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Graph struct {
			Epoch uint64 `json:"epoch"`
		} `json:"graph"`
		Mutations struct {
			Batches          int64 `json:"batches"`
			CompactThreshold int   `json:"compact_threshold"`
		} `json:"mutations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Graph.Epoch != 1 || st.Mutations.Batches != 1 || st.Mutations.CompactThreshold != 2 {
		t.Fatalf("stats after update: %+v", st)
	}

	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit")
	}
}

// TestServeTraceFile: -trace records each query's events tagged with its
// trace ID.
func TestServeTraceFile(t *testing.T) {
	tracePath := t.TempDir() + "/trace.jsonl"
	addrCh := make(chan string, 1)
	testListenerReady = func(addr string) { addrCh <- addr }
	defer func() { testListenerReady = nil }()

	exited := make(chan int, 1)
	go func() {
		var stdout, stderr bytes.Buffer
		exited <- run([]string{"-gen", "er:200:800", "-addr", "127.0.0.1:0", "-trace", tracePath}, &stdout, &stderr)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("server never bound its listener")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/query?pattern=pg1&count_only=1", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit")
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"tag":"q1"`)) {
		t.Fatalf("trace has no q1-tagged events:\n%s", data)
	}
}
