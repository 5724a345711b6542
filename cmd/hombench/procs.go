package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"highorder/internal/clock"
)

// buildServers compiles homserve and homgate from the source tree at root
// into binDir.
func buildServers(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/homserve", "./cmd/homgate")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/homserve ./cmd/homgate: %w\n%s", err, out.String())
	}
	return nil
}

// proc is one child server process. Its output goes to a log file next to
// its working data; Pdeathsig kills it if hombench itself dies first.
type proc struct {
	name   string
	bin    string
	args   []string
	log    string
	url    string
	cmd    *exec.Cmd
	exited chan struct{}
}

func startProc(name, bin string, args []string, logPath, url string) (*proc, error) {
	p := &proc{name: name, bin: bin, args: args, log: logPath, url: url}
	return p, p.start()
}

func (p *proc) start() error {
	f, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = f.Close()
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.cmd = cmd
	p.exited = make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop is expected to be nonzero
		_ = f.Close()
		close(p.exited)
	}()
	return nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop asks the process to drain (SIGTERM) and waits for it to exit,
// escalating to SIGKILL after grace.
func (p *proc) stop(grace time.Duration) {
	if p == nil || p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(grace):
		p.kill()
	}
}

// kill ends the process with SIGKILL and waits until it has exited.
func (p *proc) kill() {
	if p == nil || p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// waitHealthy polls url/healthz until it answers 200, the process exits, or
// timeout passes.
func waitHealthy(p *proc, timeout time.Duration) error {
	clk, slp := clock.Clock(nil).OrWall(), clock.Sleeper(nil).OrReal()
	hc := &http.Client{Timeout: time.Second}
	deadline := clk().Add(timeout)
	for {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before /healthz answered; see %s", p.name, p.log)
		default:
		}
		resp, err := hc.Get(p.url + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if clk().After(deadline) {
			return fmt.Errorf("%s: /healthz not 200 within %v; see %s", p.name, timeout, p.log)
		}
		// A refused connect costs microseconds; polling this often keeps
		// set-up times of a few milliseconds resolved.
		slp.Sleep(100 * time.Microsecond)
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields restart after ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// selfCPU returns hombench's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close() //homlint:allow errdrop -- read-only file
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}
