package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// windowLen is the length of one measurement window. Every end-to-end
// rate and latency is a median over windows, so one stalled second moves
// one sample, not the result.
const windowLen = time.Second

// recorder keeps the latencies one client measures during one window.
// One client owns one recorder; nothing is shared while the clients run.
type recorder struct {
	lat    []int64
	failed int64
}

func (r *recorder) observe(lat time.Duration, err error) {
	if err != nil {
		r.failed++
		return
	}
	r.lat = append(r.lat, int64(lat))
}

// window is what one measurement window saw, times as measured.
type window struct {
	ops     int           // operations completed
	elapsed time.Duration // start to the last client's last reply
	cpu     time.Duration // process CPU time spent
	lat     []int64       // every operation's latency, ascending, ns
}

// windowMedians are the end-to-end figures of a run of windows: each a
// median over the windows.
type windowMedians struct {
	opsPerSec float64
	p50us     float64
	p95us     float64
	cpuUsOp   float64   // CPU µs per operation
	rates     []float64 // every window's operations per second
}

func medians(ws []window) windowMedians {
	var m windowMedians
	var p50, p95, cpu []float64
	for _, w := range ws {
		if w.ops == 0 {
			continue
		}
		m.rates = append(m.rates, float64(w.ops)/w.elapsed.Seconds())
		p50 = append(p50, float64(quantile(w.lat, 0.50))/1e3)
		p95 = append(p95, float64(quantile(w.lat, 0.95))/1e3)
		cpu = append(cpu, float64(w.cpu.Nanoseconds())/1e3/float64(w.ops))
	}
	m.opsPerSec, m.p50us, m.p95us, m.cpuUsOp = median(m.rates), median(p50), median(p95), median(cpu)
	return m
}

// segment is one measured stretch of a run: consecutive windows, and what
// the process and the machine did meanwhile.
type segment struct {
	windows []window
	queries int64 // acknowledged (sim-paper: simulated) during the segment
	failed  int64 // operations that failed
	mem0    runtime.MemStats
	mem1    runtime.MemStats
	stolen  int64 // clock ticks the hypervisor took from the machine
}

func (seg *segment) begin() {
	runtime.ReadMemStats(&seg.mem0)
	seg.stolen = -stolenTicks()
}

func (seg *segment) end() {
	seg.stolen += stolenTicks()
	runtime.ReadMemStats(&seg.mem1)
}

// health files how the machine behaved during the segment: how much the
// segment's own windows disagree, and the share of processor time the
// hypervisor gave to someone else.
func (seg *segment) health(h map[string]float64) {
	var elapsed time.Duration
	for _, w := range seg.windows {
		elapsed += w.elapsed
	}
	h["harness.window_spread_pct"] = spreadPct(medians(seg.windows).rates)
	const ticksPerSecond = 100 // USER_HZ
	if elapsed > 0 {
		h["harness.steal_pct"] = float64(seg.stolen) / (elapsed.Seconds() * ticksPerSecond * float64(runtime.NumCPU())) * 100
	}
}

// process files the process.* layer metrics of an untraced segment.
func (seg *segment) process(m map[string]float64) {
	m["process.allocs_per_query"] = float64(seg.mem1.Mallocs-seg.mem0.Mallocs) / float64(max(seg.queries, 1))
	m["process.gc_cycles"] = float64(seg.mem1.NumGC - seg.mem0.NumGC)
	m["process.gc_pause_ms_total"] = float64(seg.mem1.PauseTotalNs-seg.mem0.PauseTotalNs) / 1e6
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.9999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// spreadPct is the interquartile range over the median, in percent —
// how much a run's own windows disagree with each other.
func spreadPct(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := sorted(v)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m * 100
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTicks is the time the hypervisor ran someone else on this
// machine's processors, in clock ticks since boot (0 where the kernel
// does not say).
func stolenTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		v, _ := strconv.ParseInt(f[8], 10, 64)
		return v
	}
	return 0
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// calibrate times a fixed loopback ping-pong (one byte each way, 2000
// round trips) and returns the median round trip in microseconds. It
// never touches the program under test: taken before and after a run, it
// says whether the machine's sockets and scheduler were quiet.
func calibrate() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		_, err = io.Copy(conn, conn)
		echoed <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	br := bufio.NewReader(conn)
	const trips = 2000
	rtts := make([]float64, 0, trips)
	one := []byte{1}
	for i := 0; i < trips; i++ {
		t0 := time.Now()
		if _, err := conn.Write(one); err != nil {
			conn.Close()
			return 0, err
		}
		if _, err := br.ReadByte(); err != nil {
			conn.Close()
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	conn.Close()
	if err := <-echoed; err != nil {
		return 0, err
	}
	return median(rtts), nil
}
