package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read the daemon's log while the daemon
// goroutine is still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDaemonLifecycle boots the daemon on port 0, discovers the bound
// address through -addrfile exactly as the serve-smoke script does, hits
// /healthz, and verifies context cancellation shuts it down cleanly.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var log syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- realMain(ctx, &log, "127.0.0.1:0", addrFile, "", "", 1500, 2, 0, 1, 5*time.Second, "127.0.0.1:0")
	}()

	addr := waitAddr(t, addrFile)

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz: status %d, body %+v", resp.StatusCode, health)
	}

	// The job engine is wired in: an empty listing answers 200.
	resp, err = http.Get("http://" + addr + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(listing.Jobs) != 0 {
		t.Errorf("jobs listing: status %d, body %+v", resp.StatusCode, listing)
	}

	// The profiling endpoints are on the dedicated pprof listener and
	// never on the API listener.
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("API listener served /debug/pprof/ with status %d, want 404", resp.StatusCode)
	}
	var pprofAddr string
	deadline := time.Now().Add(10 * time.Second)
	for pprofAddr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never logged its pprof address:\n%s", log.String())
		}
		for _, line := range strings.Split(log.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "mecpid: pprof on http://"); ok {
				pprofAddr = strings.TrimSuffix(rest, "/debug/pprof/")
			}
		}
		if pprofAddr == "" {
			time.Sleep(20 * time.Millisecond)
		}
	}
	resp, err = http.Get("http://" + pprofAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof listener: status %d, want 200", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon exited with %v, want clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after cancellation")
	}
	if !strings.Contains(log.String(), "listening on http://") {
		t.Errorf("log missing listen line:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "shut down") {
		t.Errorf("log missing shutdown line:\n%s", log.String())
	}
}

// waitAddr returns the address the daemon writes to addrFile once it
// listens.
func waitAddr(t *testing.T, addrFile string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return string(data)
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its address file")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonClosesTricklingConnection: a client that sends half a
// request line and then nothing is disconnected once readHeaderTimeout
// passes, instead of holding its connection open forever.
func TestDaemonClosesTricklingConnection(t *testing.T) {
	t.Parallel()
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- realMain(ctx, io.Discard, "127.0.0.1:0", addrFile, "", "", 1000, 2, 0, 1, 5*time.Second, "")
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("daemon exited with %v", err)
		}
	}()

	conn, err := net.Dial("tcp", waitAddr(t, addrFile))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /v1/pre")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	// The server may answer with a 4xx before it closes; either way
	// the read ends at the close.
	reply, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after half a request line (readHeaderTimeout %v)", elapsed, readHeaderTimeout)
	}
	if len(reply) > 0 && !bytes.HasPrefix(reply, []byte("HTTP/1.1 4")) {
		t.Errorf("server answered half a request line with %q", reply)
	}
	if elapsed < readHeaderTimeout-time.Second {
		t.Errorf("connection closed after %v, before readHeaderTimeout %v: %v", elapsed, readHeaderTimeout, err)
	}
}

func TestDaemonRejectsBadListenAddress(t *testing.T) {
	if err := realMain(context.Background(), bytes.NewBuffer(nil), "256.256.256.256:99999", "", "", "", 1000, 2, 0, 1, time.Second, ""); err == nil {
		t.Error("invalid listen address should fail")
	}
}

func TestDaemonRejectsBadPprofAddress(t *testing.T) {
	if err := realMain(context.Background(), bytes.NewBuffer(nil), "127.0.0.1:0", "", "", "", 1000, 2, 0, 1, time.Second, "256.256.256.256:99999"); err == nil {
		t.Error("invalid pprof listen address should fail")
	}
}
