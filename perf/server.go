package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mmprofile/internal/wire"
)

// env is what every run of a process shares: where the server binary is,
// where run directories go, and which CPUs each side owns.
type env struct {
	serverBin   string
	outDir      string // perf/out
	genCPUs     []int
	srvCPUs     []int
	serverProcs int
	host        hostInfo

	mu      sync.Mutex
	cleanup []func()
}

// onExit registers fn to run when the harness exits, on every path.
func (e *env) onExit(fn func()) {
	e.mu.Lock()
	e.cleanup = append(e.cleanup, fn)
	e.mu.Unlock()
}

// runCleanup runs the registered functions, newest first, once.
func (e *env) runCleanup() {
	e.mu.Lock()
	fns := e.cleanup
	e.cleanup = nil
	e.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// backend is where a run's requests go: an out-of-process mmserver over a
// unix socket (the benchmark), or an in-process wire.Server over net.Pipe
// (the smoke test and the ladder's pipe rung).
type backend interface {
	// dial opens one protocol connection. counter, when non-nil, is
	// credited with the bytes read from it while its switch is on.
	dial(counter *byteCounter) (*wire.Client, error)
	// pid is the server's process id, 0 when it is in-process.
	pid() int
	// stop ends the server: kill sends SIGKILL (a crash), otherwise
	// SIGTERM (mmserver's graceful shutdown, which checkpoints). It
	// returns once the server has gone.
	stop(kill bool) error
}

// serverProc is one running mmserver.
type serverProc struct {
	cmd  *exec.Cmd
	sock string // relative to the run directory, which is the harness's cwd
	log  *os.File
	done chan struct{}
	once sync.Once
}

// startServer execs mmserver in the current directory (the run directory:
// relative paths keep the unix socket path under the 108-byte limit
// whatever the checkout is called). Only -addr, -state, -fsync and
// -max-resident-profiles are ever passed; everything else is the default.
func (e *env) startServer(stateDir string, fsync bool, maxResident int) (*serverProc, error) {
	sock := "s.sock"
	_ = os.Remove(sock)
	args := []string{"-addr", "unix:" + sock}
	if stateDir != "" {
		args = append(args, "-state", stateDir)
		if fsync {
			args = append(args, "-fsync")
		}
	}
	if maxResident > 0 {
		args = append(args, "-max-resident-profiles", strconv.Itoa(maxResident))
	}
	name := e.serverBin
	if len(e.srvCPUs) > 0 {
		if taskset, err := exec.LookPath("taskset"); err == nil {
			args = append([]string{"-c", cpuList(e.srvCPUs), e.serverBin}, args...)
			name = taskset
		}
	}
	cmd := exec.Command(name, args...)
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	// TMPDIR keeps the flight recorder's default dump directory inside the
	// run directory too.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.serverProcs), "TMPDIR="+wd)
	logf, err := os.OpenFile("server.log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("perf: starting mmserver: %w", err)
	}
	sp := &serverProc{cmd: cmd, sock: sock, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(sp.done)
	}()
	e.onExit(func() { _ = sp.stop(true) })
	return sp, nil
}

// waitReady blocks until the server accepts connections.
func (sp *serverProc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-sp.done:
			return fmt.Errorf("perf: mmserver exited before listening (see server.log)")
		default:
		}
		if _, err := os.Stat(sp.sock); err == nil {
			if c, err := net.Dial("unix", sp.sock); err == nil {
				c.Close()
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("perf: mmserver not listening after %v", timeout)
}

func (sp *serverProc) pid() int { return sp.cmd.Process.Pid }

func (sp *serverProc) dial(counter *byteCounter) (*wire.Client, error) {
	if counter == nil {
		return wire.Dial("unix:" + sp.sock)
	}
	conn, err := net.DialTimeout("unix", sp.sock, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return wire.NewClient(&countingConn{Conn: conn, c: counter}), nil
}

func (sp *serverProc) stop(kill bool) error {
	var err error
	sp.once.Do(func() {
		sig := syscall.SIGTERM
		if kill {
			sig = syscall.SIGKILL
		}
		_ = sp.cmd.Process.Signal(sig)
		select {
		case <-sp.done:
		case <-time.After(30 * time.Second):
			_ = sp.cmd.Process.Kill()
			<-sp.done
			err = fmt.Errorf("perf: mmserver ignored %v for 30s, killed", sig)
		}
		sp.log.Close()
		_ = os.Remove(sp.sock)
	})
	return err
}

// byteCounter is where a traced connection credits the bytes it reads: n
// belongs to the one goroutine that reads the connection, on is the traced
// run's shared switch.
type byteCounter struct {
	n  *int64
	on *atomic.Bool
}

// countingConn counts the bytes read from a connection while the switch is
// on. This is all the tracing the top rung adds to an untraced run.
type countingConn struct {
	net.Conn
	c *byteCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.c.on.Load() {
		*c.c.n += int64(n)
	}
	return n, err
}

// copyDir copies a (flat or nested) directory of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
