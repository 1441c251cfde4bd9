// Command perfbench is the repository's benchmark of record. It runs one
// named workload against the code of the checkout it is built from, checks
// every verdict against an oracle, and prints the workload's metrics:
//
//	go build -o perfbench . && ./perfbench -root .. -workload audit-match -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it runs
// the layer-by-layer traced run instead. The last line of standard output
// is one JSON object with keys correct, attempted, failed and metrics. See
// README.md for the workloads, the metric glossary and how the layers map
// onto the end-to-end numbers.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives.
type env struct {
	work    string // scratch directory for this run, removed at exit
	seed    uint64
	seconds time.Duration
	workers int // nproc: the bound on every worker pool
	trace   bool
	rec     *Recorder // traced runs only
}

// result is what a workload returns: operation counts, the metrics the
// driver gates on, and named details printed for readers.
type result struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]metric
	details           []detail
}

// detail is a named figure printed before the final line.
type detail struct {
	name, unit string
	value      float64
	note       string
}

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) detail(name, unit string, v float64, note string) {
	r.details = append(r.details, detail{name: name, unit: unit, value: v, note: note})
}

// fail counts one failed operation, keeping the first error for the log.
func (r *result) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*result, error){
	"record-match": runRecordMatch,
	"audit-match":  runAuditMatch,
	"spot-db":      runSpotDB,
	"fleet-match":  runFleetMatch,
}

func main() { os.Exit(run()) }

func run() int {
	root := flag.String("root", ".", "repository checkout the benchmark runs in; scratch files go under <root>/.bench_build")
	name := flag.String("workload", "", "workload to run: record-match, audit-match, spot-db or fleet-match")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed builds the same inputs")
	seconds := flag.Int("seconds", 10, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end measurement")
	flag.Parse()

	runner, ok := workloads[*name]
	if !ok {
		return usage("unknown workload %q", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return usage("-seconds must be >= 1 and -trace 0 or 1")
	}
	nproc := runtime.NumCPU()
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		if n, err := strconv.Atoi(v); err != nil || n < 1 || n > nproc {
			return usage("GOMAXPROCS=%s: must be between 1 and nproc (%d)", v, nproc)
		}
	}

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return usage("%v", err)
	}
	work := filepath.Join(absRoot, ".bench_build", fmt.Sprintf("run-%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return usage("%v", err)
	}
	defer os.RemoveAll(work)

	e := &env{work: work, seed: *seed, seconds: time.Duration(*seconds) * time.Second, workers: nproc, trace: *trace == 1}
	if e.trace {
		e.rec = NewRecorder()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d workers=%d %s commit=%s\n",
		*name, *seed, *seconds, *trace, nproc, runtime.GOMAXPROCS(0), e.workers, runtime.Version(), commitOf(absRoot))

	res, err := runner(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if e.trace {
		dir := filepath.Join(absRoot, ".bench_build", "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = e.rec.WriteJSONL(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", len(e.rec.Spans()), path)
		}
	}
	printDetails(res)
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", res.firstErr)
	}
	out := report{
		Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted,
		Failed: res.failed, Metrics: res.metrics,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	flag.Usage()
	return 2
}

// printDetails prints every figure of the run by name with its unit.
func printDetails(r *result) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14s %s\n", n, fmtNum(r.metrics[n].Value), r.metrics[n].Unit)
	}
	for _, d := range r.details {
		fmt.Printf("  %-36s %14s %-10s %s\n", d.name, fmtNum(d.value), d.unit, d.note)
	}
	fmt.Printf("  %-36s %14s %s   (%d of %d operations)\n", "fail_ratio", fmtNum(float64(r.failed)/float64(max(r.attempted, 1))), "ratio", r.failed, r.attempted)
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// commitOf identifies the code under test: the git commit when the root
// is a git checkout, and a hash of every Go source and module file
// otherwise, so runs of unchanged code share an identity either way.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the identity
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuNow returns the CPU time the process has used so far, user and
// system, over all threads. The kernel leaves out time the host gave the
// virtual CPUs to other guests (steal time), which on a shared host
// swings wall-clock timings by half from one minute to the next.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the machine's CPU time counters from /proc/stat: the
// steal ticks and the total over every state. Both are 0 where /proc is
// unavailable.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i == 7 {
			steal = v
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
	}
	return steal, total
}

// peakRSSMB returns the process's peak resident set size in megabytes
// since the kernel's count last restarted (VmHWM), falling back to the Go
// runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS restarts the kernel's peak-RSS count at the current
// resident size; false where that is not supported.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// rssWindow is how often the timed phase's peak-RSS count restarts.
const rssWindow = time.Second

// watchPeakRSS samples the peak RSS of each rssWindow until the returned
// function is called, which returns the median of the windows' peaks: the
// memory the steady state reaches each second, steadier than a single
// maximum that depends on where one collection happened to fall. Where
// the count cannot be restarted it returns the peak of the whole run.
func watchPeakRSS() func() float64 {
	if !resetPeakRSS() {
		return peakRSSMB
	}
	stop, done := make(chan struct{}), make(chan []float64)
	go func() {
		var peaks []float64
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peaks = append(peaks, peakRSSMB())
				resetPeakRSS()
			case <-stop:
				done <- append(peaks, peakRSSMB())
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return median(<-done)
	}
}
