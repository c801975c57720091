package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(q*float64(len(s))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevel returns the highest of a fixed ladder of percentiles that
// has at least ten of n samples beyond it, so a tail is never one or
// two unlucky samples.
func tailLevel(n int) float64 {
	for _, q := range []float64{0.99, 0.98, 0.95, 0.9, 0.8, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// tail returns xs at tailLevel(len(xs)).
func tail(xs []float64) float64 { return quantile(xs, tailLevel(len(xs))) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// repeatFor runs rep until the run has measured at least budget (and
// at least once).
func repeatFor(budget time.Duration, rep func() error) error {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		if err := rep(); err != nil {
			return err
		}
	}
	return nil
}

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median, so one slow set-up (cold page cache, lazy runtime set-up,
// a stolen vCPU) does not decide it.
const setupRepeats = 15

// medianSetup runs setup setupRepeats times and returns the last
// set-up's value with the median duration. Every earlier value is
// passed to discard (when non-nil) once the next one is ready.
func medianSetup[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var durs []float64
	for i := 0; i < setupRepeats; i++ {
		// Start each set-up from a collected heap, as a fresh process
		// would, so garbage from the previous one is not charged to it.
		runtime.GC()
		t := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		durs = append(durs, time.Since(t).Seconds())
		if i > 0 && discard != nil {
			discard(last)
		}
		last = v
	}
	return last, median(durs), nil
}

func setRSS(out *outcome) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.Metrics["peak_rss_mb"] = rss
	return nil
}

// zeroMetrics sets every per-layer metric to 0, so a workload reports
// layers it does not exercise as 0.
func zeroMetrics(out *outcome) {
	for _, s := range perLayer {
		out.Metrics[s.Name] = 0
	}
}
