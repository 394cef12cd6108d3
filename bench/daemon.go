package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/pki"
	"gridbank/internal/wire"
)

// The daemon lifecycle helper: build gridbankd once, boot it as a child
// process on a fresh data directory, and make sure neither the process
// group nor the directories outlive the benchmark — on a normal return,
// on a failed check, on a panic in any benchmark goroutine, and on
// SIGINT/SIGTERM.

// daemonFlags is the fixed production configuration under test; every
// other gridbankd flag keeps its default.
var daemonFlags = []string{
	"-shards", "2", "-sync", "-checkpoint", "-usage", "-micropay",
	"-wire-codec", "bin1", "-wal-codec", "bin1",
}

// readyTimeout bounds boot → first successful Ping.
const readyTimeout = 10 * time.Second

// cleanup is the process-wide registry of things to undo on exit.
var cleanup struct {
	mu      sync.Mutex
	daemons map[*daemon]struct{}
	dirs    []string
}

// registerDir marks a directory for removal at exit.
func registerDir(dir string) {
	cleanup.mu.Lock()
	cleanup.dirs = append(cleanup.dirs, dir)
	cleanup.mu.Unlock()
}

// runCleanup kills every live daemon process group and removes every
// registered directory. Safe to call more than once.
func runCleanup() {
	cleanup.mu.Lock()
	daemons := make([]*daemon, 0, len(cleanup.daemons))
	for d := range cleanup.daemons {
		daemons = append(daemons, d)
	}
	dirs := cleanup.dirs
	cleanup.dirs = nil
	cleanup.mu.Unlock()
	for _, d := range daemons {
		d.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

// installSignalCleanup makes SIGINT/SIGTERM run the cleanup before the
// process exits with the conventional 128+signal code.
func installSignalCleanup() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		runCleanup()
		code := 130
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
}

// goSafe runs fn on a new goroutine; a panic there still tears the
// daemons down before the process dies (deferred calls in main only
// cover main's own goroutine).
func goSafe(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				runCleanup()
				panic(r)
			}
		}()
		fn()
	}()
}

// buildDaemon compiles ./cmd/gridbankd from the checkout into binDir
// and returns the binary's path. The go tool skips the link when the
// binary is already up to date, so repeated runs pay the build once.
func buildDaemon(repoRoot, binDir string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(binDir, "gridbankd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gridbankd")
	cmd.Dir = repoRoot
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building gridbankd: %v\n%s", err, out.String())
	}
	return bin, nil
}

// daemon is one gridbankd child process bound to a data directory. The
// process is replaced on every restart; the data directory, the address
// and the stderr log persist across them.
type daemon struct {
	bin     string
	dataDir string
	logPath string
	addr    string

	mu     sync.Mutex
	ts     *pki.TrustStore          // the VO's CA, loaded once
	ids    map[string]*pki.Identity // identities loaded from the data directory
	cmd    *exec.Cmd
	exited chan struct{} // closed when the current process has been reaped
}

// newDaemon prepares (without starting) a daemon on a fresh data
// directory under workDir.
func newDaemon(bin, workDir, name string) (*daemon, error) {
	dataDir := filepath.Join(workDir, name)
	if err := os.MkdirAll(dataDir, 0o700); err != nil {
		return nil, err
	}
	return &daemon{bin: bin, dataDir: dataDir, logPath: filepath.Join(workDir, name+".stderr"),
		ids: make(map[string]*pki.Identity)}, nil
}

// freeLoopbackAddr asks the kernel for an unused loopback port.
// gridbankd logs the -listen flag verbatim ("serving on 127.0.0.1:0"
// under -listen 127.0.0.1:0), so the bound port cannot be parsed from
// its log line; the loader picks the port instead and start retries on
// the small race with another process taking it first.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// start execs the daemon and waits until it answers a Ping. It returns
// the time from exec to that first successful Ping.
func (d *daemon) start() (time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if d.addr == "" || attempt > 0 {
			addr, err := freeLoopbackAddr()
			if err != nil {
				return 0, err
			}
			d.addr = addr
		}
		took, err := d.startOnce()
		if err == nil {
			return took, nil
		}
		lastErr = err
		d.kill()
		if !strings.Contains(d.stderrTail(), "address already in use") {
			break
		}
	}
	return 0, fmt.Errorf("%v\n--- gridbankd stderr (%s) ---\n%s", lastErr, d.logPath, d.stderrTail())
}

func (d *daemon) startOnce() (time.Duration, error) {
	logFile, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return 0, err
	}
	args := append([]string{"-data", d.dataDir, "-vo", "VO-Bench", "-listen", d.addr}, daemonFlags...)
	cmd := exec.Command(d.bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Own process group so one kill(-pgid) takes everything the daemon
	// might spawn; Pdeathsig covers a loader that dies without running
	// its cleanup (SIGKILL, runtime fatal error).
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}

	started := make(chan error, 1)
	exited := make(chan struct{})
	var t0 time.Time
	// Pdeathsig is delivered when the *thread* that forked the child
	// exits, so the child is started from, and waited for on, a
	// goroutine pinned to its OS thread for the child's whole life.
	go func() {
		runtime.LockOSThread()
		t0 = time.Now()
		err := cmd.Start()
		started <- err
		if err == nil {
			_ = cmd.Wait()
		}
		logFile.Close()
		close(exited)
	}()
	if err := <-started; err != nil {
		return 0, fmt.Errorf("starting gridbankd: %w", err)
	}
	d.mu.Lock()
	d.cmd, d.exited = cmd, exited
	d.mu.Unlock()
	cleanup.mu.Lock()
	if cleanup.daemons == nil {
		cleanup.daemons = make(map[*daemon]struct{})
	}
	cleanup.daemons[d] = struct{}{}
	cleanup.mu.Unlock()

	deadline := t0.Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return 0, errors.New("gridbankd exited before serving")
		default:
		}
		if d.ping() == nil {
			return time.Since(t0), nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("gridbankd did not answer Ping within %v", readyTimeout)
}

// ping dials a fresh banker connection and pings once. The banker
// identity is written by the daemon's own first-boot bootstrap, so
// before that (and before the listener is up) this just fails.
func (d *daemon) ping() error {
	c, err := d.dial("banker")
	if err != nil {
		return err
	}
	defer c.Close()
	c.CallTimeout = 2 * time.Second
	_, err = c.Ping()
	return err
}

// trust loads the VO's CA certificate from the data directory, once:
// the CA is bootstrapped on first boot and never changes after.
func (d *daemon) trust() (*pki.TrustStore, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ts == nil {
		cas, err := pki.LoadCACerts(filepath.Join(d.dataDir, "ca.pem"))
		if err != nil {
			return nil, err
		}
		d.ts = pki.NewTrustStore(cas...)
	}
	return d.ts, nil
}

// dial returns an unconnected bin1-offering client authenticated as the
// named identity from the data directory.
func (d *daemon) dial(name string) (*core.Client, error) {
	d.mu.Lock()
	id := d.ids[name]
	d.mu.Unlock()
	if id == nil {
		// Not cached until it loads: before the first boot has written the
		// identity, the readiness poll comes through here and fails.
		var err error
		if id, err = pki.LoadIdentity(d.dataDir, name); err != nil {
			return nil, err
		}
		d.mu.Lock()
		d.ids[name] = id
		d.mu.Unlock()
	}
	return d.dialAs(id)
}

func (d *daemon) dialAs(id *pki.Identity) (*core.Client, error) {
	ts, err := d.trust()
	if err != nil {
		return nil, err
	}
	c, err := core.Dial(d.addr, id, ts)
	if err != nil {
		return nil, err
	}
	c.OfferCodecs = []string{wire.CodecBin1, wire.CodecJSON}
	return c, nil
}

// ca resumes the VO's certificate authority from the data directory,
// the same key material `gridbankd -issue` signs with.
func (d *daemon) ca() (*pki.CA, error) {
	id, err := pki.LoadIdentity(d.dataDir, "ca")
	if err != nil {
		return nil, err
	}
	return pki.ResumeCA(id)
}

// pid returns the live process ID (0 when not running).
func (d *daemon) pid() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cmd == nil || d.cmd.Process == nil {
		return 0
	}
	return d.cmd.Process.Pid
}

// kill SIGKILLs the daemon's process group and waits until the process
// has been reaped. A daemon that is not running is left alone.
func (d *daemon) kill() {
	d.mu.Lock()
	cmd, exited := d.cmd, d.exited
	d.cmd, d.exited = nil, nil
	d.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return
	}
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	<-exited
	cleanup.mu.Lock()
	delete(cleanup.daemons, d)
	cleanup.mu.Unlock()
}

// restart SIGKILLs the daemon and boots it again on the same data
// directory and address, returning exec → first successful Ping.
func (d *daemon) restart() (time.Duration, error) {
	d.kill()
	return d.start()
}

// stderrTail returns the end of the captured daemon log.
func (d *daemon) stderrTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	const max = 8 << 10
	if len(b) > max {
		b = b[len(b)-max:]
	}
	return string(b)
}

// cpuTicks returns the daemon's utime+stime in clock ticks from
// /proc/<pid>/stat.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may itself
	// contain spaces: state is field 3, utime 14, stime 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return ut + st, nil
}

// clockTick is USER_HZ: the unit of /proc/<pid>/stat CPU times. It has
// been 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuMicros returns the daemon's consumed CPU time in microseconds.
func (d *daemon) cpuMicros() (float64, error) {
	t, err := d.cpuTicks()
	return float64(t) * 1e6 / clockTick, err
}

// rssMiB returns the daemon's resident set size from /proc/<pid>/status.
func (d *daemon) rssMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// walBytes sums the sizes of every journal in the data directory:
// ledger shards plus the usage and micropay spools.
func (d *daemon) walBytes() (int64, error) {
	paths, err := filepath.Glob(filepath.Join(d.dataDir, "*.wal"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
