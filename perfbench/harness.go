package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildBinaries compiles the program's daemons from the source tree at root
// into dir. It runs once per invocation, before any timing starts.
func buildBinaries(root, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/bcserved", "./cmd/bcrouter")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building bcserved and bcrouter: %w", err)
	}
	return nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// proc is one started daemon.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  string // combined stdout and stderr
	done chan struct{}
	err  error // exit status, valid after done is closed
}

// startProc starts bin with args plus -addr on a fresh port.
func startProc(name, bin, logDir string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p, err := spawn(name, logDir, bin, append([]string{"-addr", addr}, args...)...)
	if p != nil {
		p.url = "http://" + addr
	}
	return p, err
}

// spawn starts bin with args, its output going to logDir/name.log, and
// reaps it in the background.
func spawn(name, logDir, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, log: filepath.Join(logDir, name+".log"), done: make(chan struct{})}
	f, err := os.Create(p.log)
	if err != nil {
		return nil, err
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = f, f
	// Should the benchmark itself die, its daemons die with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		f.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the daemon to shut down (SIGTERM: it drains and writes its
// final snapshot) and kills it if it has not exited within grace.
func (p *proc) stop(grace time.Duration) error {
	if p.exited() {
		return fmt.Errorf("%s exited early: %v\n%s", p.name, p.err, p.tail())
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return nil
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s ignored SIGTERM for %v and was killed", p.name, grace)
	}
}

// tail returns the end of the daemon's log, for error reports.
func (p *proc) tail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// waitReady polls url+"/readyz" until it answers 200, the process exits or
// the deadline passes.
func waitReady(ctx context.Context, hc *http.Client, p *proc) error {
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
		if resp, err := hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("%s exited before it was ready: %v\n%s", p.name, p.err, p.tail())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w\n%s", p.name, ctx.Err(), p.tail())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// procStat is what the benchmark reads of a process from /proc.
type procStat struct {
	cpu   time.Duration // user + system
	hwmKB int64         // VmHWM: peak resident set
}

// clockTick is the unit of the utime and stime fields of /proc/<pid>/stat
// (USER_HZ, 100 on every Linux configuration Go supports).
const clockTick = 10 * time.Millisecond

// readProcStat reads the CPU time and peak RSS of pid.
func readProcStat(pid int) (procStat, error) {
	var st procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	cpu, err := parseStatCPU(string(b))
	if err != nil {
		return st, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	st.cpu = cpu
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	defer f.Close()
	st.hwmKB, err = parseStatusHWM(f)
	if err != nil {
		return st, fmt.Errorf("/proc/%d/status: %w", pid, err)
	}
	return st, nil
}

// parseStatCPU returns utime + stime from the text of /proc/<pid>/stat.
// The command name in field 2 may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(s string) (time.Duration, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("no command name")
	}
	f := strings.Fields(s[i+1:])
	// After the name: state is field 3, utime field 14, stime field 15.
	if len(f) < 13 {
		return 0, errors.New("too few fields")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad utime or stime")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// parseStatusHWM returns VmHWM in kB from /proc/<pid>/status.
func parseStatusHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line")
}

// sumProcStats reads every pid and sums CPU and peak RSS.
func sumProcStats(pids []int) (procStat, error) {
	var sum procStat
	for _, pid := range pids {
		st, err := readProcStat(pid)
		if err != nil {
			return sum, err
		}
		sum.cpu += st.cpu
		sum.hwmKB += st.hwmKB
	}
	return sum, nil
}
