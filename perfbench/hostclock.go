package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Benchmark hosts are often virtual machines whose vCPUs the hypervisor
// sometimes takes away to run other tenants ("steal" time). A stolen
// interval stretches the wall time of whatever was runnable, by tens
// of percent on a busy host, which would swamp any change to the
// program. Every timed phase therefore samples the process CPU time and
// the VM's stolen time next to the wall clock, and reports
//
//	effective wall = wall x cpu / (cpu + steal)
//
// i.e. the wall time scaled by the share of its runnable time the
// process actually ran. A vCPU accrues steal only while it has work to
// run, so steal measures exactly the time the workload was kept from
// running. With no steal the effective wall is the wall time.

// userHz is the unit of /proc/stat times (USER_HZ, 100 on Linux).
const userHz = 100

// hostSample is one reading of the host clocks.
type hostSample struct {
	wall       time.Time
	cpu, steal time.Duration
}

// sampleHost reads the wall clock, this process's CPU time (user +
// system) and the VM's total stolen time.
func sampleHost() (hostSample, error) {
	s := hostSample{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	steal, err := readSteal()
	s.steal = steal
	return s, err
}

// readSteal returns the stolen time summed over all CPUs, from the
// eighth field of /proc/stat's "cpu" line.
func readSteal() (time.Duration, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, fmt.Errorf("/proc/stat: empty")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: unexpected first line %q", sc.Text())
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat steal: %w", err)
	}
	return time.Duration(ticks) * time.Second / userHz, nil
}

// span is the host time between two samples.
type span struct {
	wall, cpu, steal time.Duration
}

func between(a, b hostSample) span {
	return span{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, steal: b.steal - a.steal}
}

// stealFrac is the share of the span's runnable time that was stolen.
func (s span) stealFrac() float64 {
	if s.cpu+s.steal <= 0 {
		return 0
	}
	return float64(s.steal) / float64(s.cpu+s.steal)
}

// effective is the span's wall time with the stolen share removed.
func (s span) effective() time.Duration {
	return time.Duration(float64(s.wall) * (1 - s.stealFrac()))
}

// hostTimer measures one phase: start it, then call stop.
type hostTimer struct{ start hostSample }

func startTimer() (hostTimer, error) {
	s, err := sampleHost()
	return hostTimer{s}, err
}

func (t hostTimer) stop() (span, error) {
	s, err := sampleHost()
	return between(t.start, s), err
}
