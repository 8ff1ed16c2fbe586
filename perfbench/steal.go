package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the hypervisor takes CPU time from the guest when
// the host is busy: the steal column of /proc/stat. On the 2-vCPU VM this
// benchmark was defined on, steal took from 7% to 32% of the VM's busy CPU
// time over six 25-second serve-mix runs, and the runs' median latency went
// from 9.9 ms to 14.7 ms with it: a run's wall-clock median told more about
// the host than about the program. Every wall-clock metric is reported net of
// steal: an interval is scaled by 1 - s, where s is the stolen share of the
// busy CPU time while it ran. Work that was runnable for a wall time w while
// a share s of that time was stolen ran for w(1 - s), which is how long it
// takes when nothing is stolen. The raw wall-clock values are printed
// beside the net ones. Where the kernel reports no steal, net equals wall.

// Sampling: stealEvery is the sampling period, and a share is taken over at
// least stealWindow around the interval's middle, so that the 10 ms tick
// resolution of /proc/stat still gives a share to within about 1% for a
// request of a few milliseconds.
const (
	stealEvery  = 100 * time.Millisecond
	stealWindow = time.Second
)

// stealMeter samples the machine's cumulative busy and stolen CPU time.
type stealMeter struct {
	mu      sync.Mutex
	samples []cpuSample // in time order
	stop    chan struct{}
	done    chan struct{}
}

// cpuSample is one reading of /proc/stat's aggregate cpu line, in clock
// ticks summed over all CPUs.
type cpuSample struct {
	at          time.Time
	busy, steal float64
}

// startStealMeter takes a first sample and keeps sampling until close.
func startStealMeter() *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

// close stops the sampling goroutine and waits for it to end. The samples
// taken stay readable.
func (m *stealMeter) close() {
	close(m.stop)
	<-m.done
}

func (m *stealMeter) sample() {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return
	}
	busy, steal, ok := parseCPULine(string(b))
	if !ok {
		return
	}
	m.mu.Lock()
	m.samples = append(m.samples, cpuSample{at: time.Now(), busy: busy, steal: steal})
	m.mu.Unlock()
}

// parseCPULine reads the aggregate "cpu" line that /proc/stat starts with:
// user nice system idle iowait irq softirq steal ... Busy time is all of it
// but idle and iowait; the guest columns are already inside user and nice.
func parseCPULine(stat string) (busy, steal float64, ok bool) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var v [8]float64
	for i := range v {
		x, err := strconv.ParseFloat(f[i+1], 64)
		if err != nil {
			return 0, 0, false
		}
		v[i] = x
	}
	return v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7], true
}

// share is the stolen share of the busy CPU time over [a, b], the interval
// widened around its middle to at least stealWindow. It is 0 when the
// samples do not cover any of the interval.
func (m *stealMeter) share(a, b time.Time) float64 {
	if d := b.Sub(a); d < stealWindow {
		mid := a.Add(d / 2)
		a, b = mid.Add(-stealWindow/2), mid.Add(stealWindow/2)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	busy0, steal0 := m.at(a)
	busy1, steal1 := m.at(b)
	if busy1 <= busy0 {
		return 0
	}
	return (steal1 - steal0) / (busy1 - busy0)
}

// at interpolates the cumulative counters linearly at t, clamped to the
// sampled span. The caller holds mu.
func (m *stealMeter) at(t time.Time) (busy, steal float64) {
	s := m.samples
	if len(s) == 0 {
		return 0, 0
	}
	i := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(t) })
	switch {
	case i == 0:
		return s[0].busy, s[0].steal
	case i == len(s):
		return s[i-1].busy, s[i-1].steal
	}
	lo, hi := s[i-1], s[i]
	f := float64(t.Sub(lo.at)) / float64(hi.at.Sub(lo.at))
	return lo.busy + f*(hi.busy-lo.busy), lo.steal + f*(hi.steal-lo.steal)
}

// net is the interval [a, b] net of steal.
func (m *stealMeter) net(a, b time.Time) time.Duration {
	return time.Duration(float64(b.Sub(a)) * (1 - m.share(a, b)))
}
