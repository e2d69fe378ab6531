package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// parts is the number of equal parts a measured phase is cut into. Every
// gated end-to-end number is the median of the parts' values, each corrected
// by the host's slowdown during that part: on a shared host a neighbour's
// burst slows one or two parts, and the median of five does not move with
// them. A part of the contract's 20 s run is 4 s — long enough to hold its
// share of the server's garbage collections (one every ≈ 5 s on point_zipf)
// and ≈ 350 ticks of the kernel's CPU clock, so what the program does
// periodically stays in the number.
const parts = 5

// cpuSample is the server's CPU clock, and the machine's steal clock, read at
// one instant.
type cpuSample struct {
	at    time.Time
	cpu   time.Duration
	steal time.Duration
}

// hostSteal is the time the hypervisor ran something else while a CPU of
// this machine had work, summed over CPUs since boot; 0 where /proc/stat
// does not say.
func hostSteal() time.Duration {
	b, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * clockTick
}

// sampleCPU reads the server's CPU clock now, then every interval until stop
// is closed, then once more; the samples arrive on the returned channel when
// it is done. A failed read ends the series early.
func (p *serverProc) sampleCPU(every time.Duration, stop <-chan struct{}) <-chan []cpuSample {
	out := make(chan []cpuSample, 1)
	read := func(s []cpuSample) ([]cpuSample, bool) {
		u, err := p.cpu()
		if err != nil {
			return s, false
		}
		return append(s, cpuSample{time.Now(), u, hostSteal()}), true
	}
	samples, ok := read(nil)
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for ok {
			select {
			case <-tick.C:
				samples, ok = read(samples)
				continue
			case <-stop:
				samples, _ = read(samples)
			}
			break
		}
		out <- samples
	}()
	return out
}

// window is what one part of a measured phase saw.
type window struct {
	length time.Duration
	ops    int           // successful operations that ended in it (a batch member counts one)
	cpu    time.Duration // server user+sys CPU spent during it
	steal  time.Duration // host steal during it, over all CPUs
	reads  []float64     // sorted read latencies (ms) of the requests that ended in it
	// slow is the host's slowdown during the window (speedometer.slowdown);
	// 1 leaves the numbers as the clocks read them.
	slow float64
}

// The window's numbers at the host's nominal speed: a host that ran slow
// times as slow served slow times fewer operations and took slow times as
// long over each.
func (w *window) throughput() float64 { return float64(w.ops) / w.length.Seconds() * w.slow }
func (w *window) cpuPerOp() float64   { return ratio(us(w.cpu), float64(w.ops)) / w.slow }
func (w *window) p50() float64        { return percentile(w.reads, 0.5) / w.slow }
func (w *window) p99() float64        { return percentile(w.reads, 0.99) / w.slow }

// windows cuts a measured phase at the sampler's instants and files every
// successful operation under the window its reply ended in. The clients
// finish their last requests a moment after the last tick, which leaves a
// sliver behind it: a last window shorter than half the first is merged into
// the one before. slowdown gives each window the host's slowdown between its
// two instants.
func windows(wl *workload, res *phaseResult, samples []cpuSample, slowdown func(from, to time.Time) float64) []window {
	if len(samples) < 2 {
		return nil
	}
	if n := len(samples); n > 2 && samples[n-1].at.Sub(samples[n-2].at) < samples[1].at.Sub(samples[0].at)/2 {
		samples = append(samples[:n-2:n-2], samples[n-1])
	}
	out := make([]window, len(samples)-1)
	edges := make([]time.Duration, len(samples))
	for i, s := range samples {
		edges[i] = s.at.Sub(res.start)
		if i > 0 {
			prev := samples[i-1]
			out[i-1] = window{length: s.at.Sub(prev.at), cpu: s.cpu - prev.cpu, steal: s.steal - prev.steal, slow: slowdown(prev.at, s.at)}
		}
	}
	for i := range res.records {
		rec := &res.records[i]
		// The window whose [from, to) holds the reply's last byte.
		wi := sort.Search(len(edges), func(j int) bool { return edges[j] > rec.end }) - 1
		if !rec.ok || wi < 0 || wi >= len(out) {
			continue
		}
		r := &wl.reqs[rec.req]
		out[wi].ops += r.members()
		if r.kind.read() {
			out[wi].reads = append(out[wi].reads, ms(rec.end-rec.start))
		}
	}
	for i := range out {
		sort.Float64s(out[i].reads)
	}
	return out
}

// medianOver is the median of f over the windows.
func medianOver(ws []window, f func(*window) float64) float64 {
	v := make([]float64, len(ws))
	for i := range ws {
		v[i] = f(&ws[i])
	}
	return median(v)
}
