package main

import (
	"crypto/x509"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/micropay"
	"gridbank/internal/node"
	"gridbank/internal/obs"
	"gridbank/internal/pki"
	"gridbank/internal/usage"
)

func TestBootstrapAndResumeCA(t *testing.T) {
	dir := t.TempDir()
	ca1, err := loadOrCreateCA(dir, "VO-T")
	if err != nil {
		t.Fatal(err)
	}
	// Artifacts exist.
	for _, f := range []string{"ca.crt", "ca.key", "ca.pem"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	// Second call resumes the same CA.
	ca2, err := loadOrCreateCA(dir, "VO-T")
	if err != nil {
		t.Fatal(err)
	}
	if !ca1.Certificate().Equal(ca2.Certificate()) {
		t.Fatal("CA not resumed")
	}
	// Identities issued by the resumed CA verify against the original
	// trust anchor.
	id, err := ca2.Issue(pki.IssueOptions{CommonName: "post-restart", Organization: "VO-T"})
	if err != nil {
		t.Fatal(err)
	}
	ts := pki.NewTrustStore(ca1.Certificate())
	subj, err := ts.VerifyPeer([]*x509.Certificate{id.Cert}, time.Now())
	if err != nil {
		t.Fatalf("post-restart issuance not trusted: %v", err)
	}
	if subj != "CN=post-restart,O=VO-T" {
		t.Fatalf("subject = %q", subj)
	}
}

func TestLoadOrIssueIdempotent(t *testing.T) {
	dir := t.TempDir()
	ca, err := loadOrCreateCA(dir, "VO-T")
	if err != nil {
		t.Fatal(err)
	}
	id1, err := loadOrIssue(dir, ca, "bank", "VO-T", true)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := loadOrIssue(dir, ca, "bank", "VO-T", true)
	if err != nil {
		t.Fatal(err)
	}
	if !id1.Cert.Equal(id2.Cert) {
		t.Fatal("identity re-issued instead of loaded")
	}
}

func TestIssueFlagWritesIdentity(t *testing.T) {
	dir := t.TempDir()
	ca, err := loadOrCreateCA(dir, "VO-T")
	if err != nil {
		t.Fatal(err)
	}
	if err := issueUser(ca, dir, "VO-T", "alice"); err != nil {
		t.Fatal(err)
	}
	id, err := pki.LoadIdentity(dir, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if id.SubjectName() != "CN=alice,O=VO-T" {
		t.Fatalf("issued subject = %q", id.SubjectName())
	}
}

// primaryConfig is what main assembles for the default mode, on a fresh
// data directory and free loopback port.
func primaryConfig(t *testing.T) node.Config {
	t.Helper()
	dir := t.TempDir()
	ca, err := loadOrCreateCA(dir, "VO-T")
	if err != nil {
		t.Fatal(err)
	}
	bank, err := loadOrIssue(dir, ca, "bank", "VO-T", true)
	if err != nil {
		t.Fatal(err)
	}
	return node.Config{
		Dir: dir, Shards: 2, Identity: bank, Trust: pki.NewTrustStore(ca.Certificate()),
		Usage: &usage.Config{}, Micropay: &micropay.Config{},
		PrimaryAddr: freeAddr(t), Obs: obs.NewRegistry(),
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// openDataFiles lists this process's descriptors open on files in dir.
func openDataFiles(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var open []string
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && filepath.Dir(target) == dir {
			open = append(open, target)
		}
	}
	return open
}

// TestPublishBindFailureFailsStartup: a taken replication port must
// fail startup like a taken -listen or -obs-addr does, not leave the
// primary serving without its publisher.
func TestPublishBindFailureFailsStartup(t *testing.T) {
	cfg := primaryConfig(t)
	var base string
	var squatter net.Listener
	for i := 0; squatter == nil; i++ {
		if i == 20 {
			t.Fatal("could not find two adjacent ports")
		}
		base = freeAddr(t)
		_, portStr, _ := net.SplitHostPort(base)
		port, _ := strconv.Atoi(portStr)
		squatter, _ = net.Listen("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(port+1)))
	}
	defer squatter.Close()
	err := servePrimary(cfg, base, "")
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("servePrimary with shard 1's publisher port taken = %v, want a startup error naming shard 1", err)
	}
	if open := openDataFiles(t, cfg.Dir); len(open) != 0 {
		t.Fatalf("failed startup left stores open: %v", open)
	}
}

// TestSignalShutsDownCleanly: SIGTERM stops the server, closes every
// store and returns nil (exit 0).
func TestSignalShutsDownCleanly(t *testing.T) {
	cfg := primaryConfig(t)
	// Whatever the interleaving with untilSignal's own Notify, SIGTERM
	// must never reach the default action and kill the test binary.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	done := make(chan error, 1)
	go func() { done <- servePrimary(cfg, "", "") }()
	var err error
	for deadline := time.Now().Add(10 * time.Second); ; {
		c, derr := core.Dial(cfg.PrimaryAddr, cfg.Identity, cfg.Trust)
		if derr == nil {
			_, err = c.Ping()
			c.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never served: %v %v", derr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(openDataFiles(t, cfg.Dir)) == 0 {
		t.Fatal("a serving daemon holds its journals open")
	}
	// Give untilSignal's Notify (registered right after Serve starts) a
	// moment; a signal before it is only seen by the guard, so resend.
	for i := 0; i < 100; i++ {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown on SIGTERM = %v, want nil", err)
			}
			if open := openDataFiles(t, cfg.Dir); len(open) != 0 {
				t.Fatalf("stores still open after shutdown: %v", open)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatal("SIGTERM did not stop the daemon")
}
