package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A speedometer reads how fast this machine runs a server's kind of code
// right now. Every probeEvery it does one fixed piece of work on a thread of
// its own — probePairs one-byte writes to a pipe, each read straight back: in
// and out of the kernel and a short walk through its memory — and records the
// CPU time the thread spent on it. The work never changes, so the time is the
// reciprocal of the machine's speed. CPU time, not wall time: waiting for a
// core behind the server's threads is not in it, so it does not depend on
// how busy the program under test keeps the machine.
//
// It exists because the sandbox's host has more than one speed. Its virtual
// CPUs share a physical machine with other tenants, and for minutes at a
// stretch the same instructions take 1.3 to 1.8 times as long, none of it
// reported as steal. Ten runs of one binary then spread over 25–50 % of their
// median, whatever is done inside a run. See README.md, "Host speed".
type speedometer struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []speedSample
}

type speedSample struct {
	at   time.Time
	took time.Duration // thread CPU time of one probe
}

const (
	// One probe every 20 ms, about 0.1 ms each: half a percent of one CPU.
	probeEvery = 20 * time.Millisecond
	probePairs = 150
	// nominalProbe is what one probe takes on the sandbox the bounds were
	// taken on while the benchmark runs and the host is in its fast phase. It
	// only sets the scale: a host-corrected time is the time the clock read
	// times nominalProbe ÷ the probe time measured beside it, so in the fast
	// phase corrected and raw numbers agree.
	nominalProbe = 105 * time.Microsecond
)

// threadCPU is the CPU time the calling thread has consumed; 0 where the
// kernel has no per-thread CPU clock, which leaves every probe at 0 and the
// numbers uncorrected.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func startSpeedometer() (*speedometer, error) {
	var pipe [2]int
	if err := syscall.Pipe(pipe[:]); err != nil {
		return nil, err
	}
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer syscall.Close(pipe[0])
		defer syscall.Close(pipe[1])
		runtime.LockOSThread() // the CPU clock read is this thread's
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		var b [1]byte
		for {
			c0 := threadCPU()
			for i := 0; i < probePairs; i++ {
				// One byte into an empty pipe only this thread drains, and
				// out again: neither call can block or come up short.
				_, _ = syscall.Write(pipe[1], b[:])
				_, _ = syscall.Read(pipe[0], b[:])
			}
			took := threadCPU() - c0
			s.mu.Lock()
			s.samples = append(s.samples, speedSample{time.Now(), took})
			s.mu.Unlock()
			select {
			case <-tick.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s, nil
}

func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

// slowdown is how many times slower than nominal the machine ran over
// [from, to): the mean probe time of that stretch ÷ nominalProbe. 1 — no
// correction — when no probe fell into it.
func (s *speedometer) slowdown(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return meanProbe(s.samples, from, to) / float64(nominalProbe)
}

func meanProbe(samples []speedSample, from, to time.Time) float64 {
	var sum time.Duration
	n := 0
	for _, p := range samples {
		if p.took > 0 && !p.at.Before(from) && p.at.Before(to) {
			sum += p.took
			n++
		}
	}
	if n == 0 {
		return float64(nominalProbe)
	}
	return float64(sum) / float64(n)
}
