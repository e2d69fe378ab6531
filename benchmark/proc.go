package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// baseFlags are passed to every spawned topkserve. -calibrate is not
// optional: without it the planner is bistable across cold starts (441 vs
// 575 batches/s on identical input in the issue's sizing run).
var baseFlags = []string{"-kind", "hybrid", "-shards", strconv.Itoa(numShards),
	"-cache-entries", strconv.Itoa(cacheEntries), "-calibrate", strconv.Itoa(calibrate)}

const (
	numShards    = 2
	cacheEntries = 4096
	calibrate    = 64
)

const readyTimeout = 120 * time.Second

// serverProc is one spawned topkserve.
type serverProc struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port, parsed from the "listening on" line
	flags []string
	// setup is exec → /readyz 200, counted from started.
	started time.Time
	setup   time.Duration

	mu   sync.Mutex
	tail []string // last stderr lines, for failure reports
	done chan struct{}
}

// startServer spawns bin on an OS-chosen loopback port and waits until
// /readyz answers 200. On any failure the process is gone when it returns.
func startServer(ctx context.Context, bin string, flags []string) (*serverProc, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	// The server must not outlive a harness that dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p := &serverProc{cmd: cmd, flags: args, started: start, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
	}()
	fail := func(format string, a ...any) (*serverProc, error) {
		p.kill()
		return nil, fmt.Errorf("topkserve %s: %s\nstderr tail:\n%s",
			strings.Join(args, " "), fmt.Sprintf(format, a...), p.stderrTail())
	}
	deadline := time.NewTimer(readyTimeout)
	defer deadline.Stop()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.done:
		return fail("exited before listening")
	case <-deadline.C:
		return fail("no listen address after %v", readyTimeout)
	case <-ctx.Done():
		return fail("%v", ctx.Err())
	}
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
	for {
		if resp, err := http.Get(p.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(start)
				return p, nil
			}
		}
		select {
		case <-poll.C:
		case <-p.done:
			return fail("exited before ready")
		case <-deadline.C:
			return fail("not ready after %v", readyTimeout)
		case <-ctx.Done():
			return fail("%v", ctx.Err())
		}
	}
}

// kill is kill -9 and a wait for the process and its stderr reader to end.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
	p.cmd.Wait()
}

func (p *serverProc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// procUsage is a sample of /proc/<pid>: CPU consumed so far and memory.
type procUsage struct {
	user, sys   time.Duration
	rssMB, hwMB float64
}

// clockTick is the kernel's USER_HZ, 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// cpu is the server's user+sys CPU so far.
func (p *serverProc) cpu() (time.Duration, error) {
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	u, err := parseProcStat(string(stat))
	return u.user + u.sys, err
}

func (p *serverProc) usage() (procUsage, error) {
	pid := strconv.Itoa(p.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procUsage{}, err
	}
	u, err := parseProcStat(string(stat))
	if err != nil {
		return procUsage{}, err
	}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procUsage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "VmHWM:":
			u.hwMB = kb / 1024
		case "VmRSS:":
			u.rssMB = kb / 1024
		}
	}
	return u, nil
}

// parseProcStat extracts utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line; the command name in field 2 may hold spaces, so
// fields are counted from the closing parenthesis.
func parseProcStat(stat string) (procUsage, error) {
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return procUsage{}, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, fmt.Errorf("malformed /proc stat times in %q", stat)
	}
	return procUsage{user: time.Duration(ut) * clockTick, sys: time.Duration(st) * clockTick}, nil
}

// selfCPU is the harness's own user+sys CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
