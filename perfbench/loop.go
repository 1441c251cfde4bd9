package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sig"
)

// setups is how many times each run builds its inputs; setup_s is the
// median.
const setups = 5

// sample is one timed operation.
type sample struct {
	ms    float64 // wall time
	cpuMs float64 // process CPU time over the same interval
	work  float64 // units of work the operation completed
	fault bool    // the operation's expected verdict is a fault
}

// stopwatch reads wall and process CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuNow()} }

// sample returns the elapsed wall and CPU milliseconds as a sample.
func (w stopwatch) sample(work float64, fault bool) sample {
	return sample{
		ms:    float64(time.Since(w.wall).Nanoseconds()) / 1e6,
		cpuMs: float64((cpuNow() - w.cpu).Nanoseconds()) / 1e6,
		work:  work, fault: fault,
	}
}

// tracer routes an operation's signature checks through counting
// verifiers that record spans. A nil *tracer runs the operation untraced.
type tracer struct {
	count atomic.Int64
	rec   *Recorder
	ks    *sig.KeyStore
}

// keys returns the key store an operation verifies with: src itself when
// untraced, otherwise a copy of it whose verifiers count and record.
func (t *tracer) keys(src *sig.KeyStore) *sig.KeyStore {
	if t == nil {
		return src
	}
	if t.ks == nil {
		t.ks = wrapKeys(sig.NewKeyStore(), src, &t.count, t.rec)
	}
	return t.ks
}

// opFunc runs operation i of client; it returns the operation's timing
// and work, or the error that failed it.
type opFunc func(client, i int, tr *tracer) (sample, error)

// phase is the outcome of a timed phase: its operations, and the wall and
// process CPU time the whole phase took.
type phase struct {
	samples   []sample
	wall, cpu time.Duration
}

// closedLoop runs clients concurrently, each issuing its next operation
// only when the previous one has returned, until dur has passed. Every
// operation counts as attempted; each error counts as a failure. It also
// records the phase's peak memory and the host's steal share.
func closedLoop(clients int, dur time.Duration, op opFunc, res *result) phase {
	rss := watchPeakRSS()
	steal0, total0 := hostTicks()
	w := startWatch()
	defer func() {
		res.set("peak_rss_mb", "MB", rss())
		if steal1, total1 := hostTicks(); total1 > total0 {
			res.detail("host_steal_share", "ratio", float64(steal1-steal0)/float64(total1-total0),
				"of the machine's CPU time taken by other guests during the timed phase; inflates wall times, not CPU times")
		}
	}()
	deadline := time.Now().Add(dur)
	per := make([][]sample, clients)
	errs := make([][]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				s, err := op(c, i, nil)
				if err != nil {
					errs[c] = append(errs[c], err)
					continue
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	ph := phase{wall: time.Since(w.wall), cpu: cpuNow() - w.cpu}
	for c := range per {
		ph.samples = append(ph.samples, per[c]...)
		res.attempted += len(per[c]) + len(errs[c])
		for _, err := range errs[c] {
			res.fail(err)
		}
	}
	return ph
}

// repeatSetup builds a run's inputs setups times (once for a traced run)
// and returns the last inputs. An end-to-end run reports the median
// set-up time as setup_s, in process CPU seconds, and the median wall time
// as a detail.
func repeatSetup[T any](e *env, res *result, build func() (T, error)) (T, error) {
	var last T
	var cpu, wall []float64
	n := setups
	if e.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		var zero T
		last = zero // let the previous inputs be collected
		w := startWatch()
		v, err := build()
		if err != nil {
			return zero, fmt.Errorf("set-up: %w", err)
		}
		s := w.sample(0, false)
		cpu, wall = append(cpu, s.cpuMs/1000), append(wall, s.ms/1000)
		last = v
	}
	if !e.trace {
		res.set("setup_s", "s", median(cpu))
		res.detail("setup_wall_s", "s", median(wall), fmt.Sprintf("median of %d set-ups", setups))
	}
	// Start the timed phase from a collected heap with the set-up's
	// garbage returned to the OS, so the phase's pace and memory do not
	// depend on where the set-ups left the collector.
	debug.FreeOSMemory()
	return last, nil
}

// latencies returns the wall ms of the samples whose fault flag equals
// fault.
func latencies(ss []sample, fault bool) []float64 {
	var out []float64
	for _, s := range ss {
		if s.fault == fault {
			out = append(out, s.ms)
		}
	}
	return out
}

// sums adds up the work, wall ms and CPU ms of the samples whose fault
// flag equals fault, and counts them.
func sums(ss []sample, fault bool) (work, ms, cpuMs float64, n int) {
	for _, s := range ss {
		if s.fault == fault {
			work, ms, cpuMs, n = work+s.work, ms+s.ms, cpuMs+s.cpuMs, n+1
		}
	}
	return work, ms, cpuMs, n
}

// endToEnd sets the gated cost metric cpu_ms_per_op from the process CPU
// milliseconds cpuMs spent on ops operations. setup_s and peak_rss_mb are
// set by repeatSetup and closedLoop.
func endToEnd(res *result, cpuMs float64, ops int) {
	res.set("cpu_ms_per_op", "ms", cpuMs/float64(ops))
}

// latencyDetails prints name_p50 and name_tail for readers, naming the
// tail's percentile and sample count.
func latencyDetails(res *result, name string, ms []float64) {
	res.detail(name+"_p50", "ms", median(ms), fmt.Sprintf("median of %d", len(ms)))
	if t, ok := tail(ms); ok {
		res.detail(name+"_tail", "ms", t.Value, fmt.Sprintf("p%d of %d samples", t.Pct, t.N))
	} else {
		res.detail(name+"_tail", "ms", math.NaN(), fmt.Sprintf("none: %d samples, a tail needs more than %d", len(ms), tailBeyond))
	}
}

// traceOverhead alternates untraced and traced runs of op for about dur
// (at least three pairs) and returns how much the traced median CPU time
// per operation exceeds the untraced one, as a fraction of the untraced
// median. Traced
// operations run as one span each, with every signature check a child.
func traceOverhead(e *env, dur time.Duration, op opFunc, res *result) (float64, error) {
	tr := &tracer{rec: e.rec}
	var plain, traced []float64 // CPU ms, which steal time does not inflate
	deadline := time.Now().Add(dur)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		res.attempted++
		s, err := op(0, i, nil)
		if err != nil {
			res.fail(err)
			return 0, err
		}
		plain = append(plain, s.cpuMs)
		res.attempted++
		e.rec.Stage("op.traced", 0, e.rec.NewTrace(), func() { s, err = op(0, i, tr) })
		if err != nil {
			res.fail(err)
			return 0, err
		}
		traced = append(traced, s.cpuMs)
	}
	return median(traced)/median(plain) - 1, nil
}
