package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/wire"
)

// This file is the long-running audit coordinator service: a persistent
// epoch-job queue fed by any number of concurrent audits, drained by an
// elastic fleet of replay workers that may join and leave mid-audit. It
// subsumes the one-shot TCPBackend for deployments where the auditor is a
// service, not a command:
//
//   - one multiplexed connection per worker carries every audit session,
//     so the reference image ships once per (worker, audit) instead of
//     once per run×connection;
//   - up to Pipeline jobs are in flight per connection, hiding the wire
//     round-trip behind replay;
//   - liveness is a heartbeat (ping/pong) with a read deadline, so a dead
//     worker is detected even when no job is outstanding;
//   - a failed or timed-out epoch re-dispatches under capped exponential
//     backoff with deterministic jitter, preferring workers that have not
//     yet tried it (with at least one honest worker in the fleet, every
//     epoch eventually lands on it);
//   - a straggling epoch is hedged: re-dispatched immediately to a second
//     worker while the original stays outstanding, first verdict wins;
//   - when the fleet is empty the queue degrades gracefully to local
//     replay, so an audit never blocks on an absent fleet.
//
// The coordinator is an EpochBackend (Backend()), so the router's
// earliest-fault cutoff, spot rechecks and deterministic merge apply
// unchanged and verdicts stay byte-identical to AuditFull.

// CoordinatorConfig tunes a Coordinator. The zero value selects sane
// service defaults; tests shrink every duration.
type CoordinatorConfig struct {
	// Pipeline is the number of jobs kept in flight per worker connection.
	// <= 0 selects 4.
	Pipeline int
	// JobTimeout is how long a dispatched epoch may go unanswered before it
	// is re-dispatched and the dispatch counted against the connection.
	// <= 0 selects 2m.
	JobTimeout time.Duration
	// HedgeAfter re-dispatches a still-outstanding epoch to a second worker
	// after this long (the hedge; first verdict wins). 0 selects
	// JobTimeout/4; < 0 disables hedging.
	HedgeAfter time.Duration
	// MaxAttempts bounds dispatch attempts per epoch. <= 0 selects 8.
	MaxAttempts int
	// ConsecutiveTimeouts is how many job timeouts in a row a connection
	// survives before it is reaped as hung. <= 0 selects 2.
	ConsecutiveTimeouts int
	// RetryBackoff is the base re-dispatch delay after a failure; each
	// subsequent failure doubles it (with deterministic jitter) up to
	// RetryMaxBackoff. Hedges are exempt. <= 0 selects 50ms.
	RetryBackoff time.Duration
	// RetryMaxBackoff caps the exponential backoff. <= 0 selects 5s.
	RetryMaxBackoff time.Duration
	// BackoffSeed drives the deterministic backoff jitter.
	BackoffSeed uint64
	// HeartbeatEvery is the ping cadence on idle connections. <= 0
	// selects 15s.
	HeartbeatEvery time.Duration
	// HeartbeatMisses is how many silent heartbeat intervals kill a
	// connection. <= 0 selects 3.
	HeartbeatMisses int
	// DialTimeout bounds worker connection setup. <= 0 selects 5s.
	DialTimeout time.Duration
	// RedialBackoff is the base delay before re-dialing a worker whose
	// connection died without traffic, doubling up to RedialMaxBackoff.
	// <= 0 selects 100ms.
	RedialBackoff time.Duration
	// RedialMaxBackoff caps the redial backoff. <= 0 selects 5s.
	RedialMaxBackoff time.Duration
	// DisableLocalFallback turns off local replay when no worker
	// connection is live; queued epochs then fail after JobTimeout of
	// starvation instead (surfacing as an audit error, exit 2).
	DisableLocalFallback bool
	// LocalWorkers bounds concurrent local-fallback replays. <= 0 selects
	// runtime.NumCPU().
	LocalWorkers int
	// Metrics receives the coordinator's operational counters and gauges.
	// Nil allocates a private registry, readable via Metrics().
	Metrics *metrics.Registry
	// Journal, when non-nil, makes the epoch queue crash-safe: runs and
	// verdicts are journaled as they happen, and an enqueued run whose key
	// matches a pending journaled run resumes — durable verdicts re-emit
	// from the journal and only the remaining epochs dispatch. The caller
	// owns the journal's lifetime (Close it after the coordinator).
	Journal *Journal
}

// taskKey identifies one dispatched epoch: (audit run, epoch index).
type taskKey struct {
	run   uint64
	index int
}

// coordTask is one epoch job on the coordinator queue. All mutable fields
// are guarded by Coordinator.mu; once done flips true nothing mutates the
// task again, so the failure/verdict paths may read it unlocked.
type coordTask struct {
	run   *coordRun
	job   *EpochJob
	index int

	// encMu guards enc, released and job.Start: the sender encodes and
	// the local pool replays outside Coordinator.mu, while release may run
	// on whichever goroutine settles the task.
	encMu    sync.Mutex
	enc      []byte
	released bool

	attempts   int
	inflight   int
	queued     bool
	hedged     bool
	done       bool
	eligibleAt time.Time
	enqueuedAt time.Time
	triedOn    map[string]bool
	wireBytes  int
	fullBytes  int // full-state job-frame bytes, all dispatches
	deltaBytes int // delta-encoded job-frame bytes, all dispatches
	deltaSent  int // delta-encoded dispatches
	deltaFalls int // full re-dispatches after a worker NeedState
	failErr    error
}

// frame returns the cached wire encoding of the job, so a re-dispatch
// never re-encodes; nil once the task has settled and released its state.
func (t *coordTask) frame() []byte {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	if t.enc == nil && !t.released {
		t.enc = jobToWire(t.job).Marshal()
	}
	return t.enc
}

// replayJob returns a copy of the job for local replay, or nil once the
// task has settled and released its state. The copy keeps the start state
// alive for the replay even if the task settles meanwhile.
func (t *coordTask) replayJob() *EpochJob {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	if t.released {
		return nil
	}
	job := *t.job
	return &job
}

// finish releases a settled task's dispatch state and counts it toward
// its run's completion. Every verdict path calls it after the task's emit
// (if any) returned, so the router's spot recheck, which replays from
// job.Start inside emit, has already run: a settled task is never
// dispatched or rechecked again, and holding its materialized start state
// and cached frame until the whole run ends would size the coordinator's
// memory by the run's length instead of by the work in flight.
func (t *coordTask) finish() {
	t.encMu.Lock()
	t.released = true
	t.enc = nil
	t.job.Start = nil
	t.encMu.Unlock()
	t.run.finishSettle(1)
}

// coordRun is one audit's jobs on the shared queue. A task counts toward
// settled only after its emit (if any) returned, so done closes strictly
// after every verdict reached the router.
type coordRun struct {
	id       uint64
	sess     Session
	frame    []byte
	skip     func(int) bool
	emit     func(EpochVerdict)
	deltaSrc func(k uint32) (*snapshot.Delta, error)
	tasks    map[int]*coordTask
	total    int
	// key is the run's stable journal identity; journaled reports whether
	// this run's events are being written ahead.
	key       [32]byte
	journaled bool

	settled atomic.Int64
	done    chan struct{}
	err     error // guarded by Coordinator.mu
}

// finishSettle records n tasks fully finished (verdict emitted, skipped,
// or failed) and completes the run when the last one lands.
func (r *coordRun) finishSettle(n int64) {
	if n > 0 && r.settled.Add(n) == int64(r.total) {
		close(r.done)
	}
}

// coordDispatch is one outstanding job on one worker connection.
type coordDispatch struct {
	task   *coordTask
	sentAt time.Time
}

// coordWorker drives one remote worker: a persistent dial/redial loop, a
// multiplexed connection with pipelined jobs, and heartbeat liveness.
// Connection state is guarded by Coordinator.mu.
type coordWorker struct {
	c    *Coordinator
	addr string
	stop chan struct{}

	conn     net.Conn
	inflight map[taskKey]*coordDispatch
	// sentRuns are the runs whose session the live connection registered;
	// endRuns are settled runs whose session the sender must still end on
	// the worker (DistFrameMuxSessionEnd). Both reset with the connection.
	sentRuns    map[uint64]struct{}
	endRuns     []uint64
	timeouts    int
	activeSince time.Time
	busy        time.Duration

	// trackers models, per run, what snapshot state the worker behind the
	// live connection holds for delta-encoded dispatch. Owned by the sender
	// goroutine — never touched under the lock. needReset (guarded by
	// Coordinator.mu) carries NeedState notices from the read loop to the
	// sender, which invalidates the named trackers before its next ship.
	trackers  map[uint64]*deltaTracker
	needReset map[uint64]bool
}

// Coordinator is the long-running audit coordinator service. Create with
// NewCoordinator, point audits at Backend() (or use Audit), grow and
// shrink the fleet with AddWorker/RemoveWorker, and Close when done.
type Coordinator struct {
	cfg CoordinatorConfig
	reg *metrics.Registry

	mu           sync.Mutex
	wake         chan struct{}
	queue        []*coordTask
	runs         map[uint64]*coordRun
	workers      map[string]*coordWorker
	nextRun      uint64
	retiredBusy  time.Duration
	starvedSince time.Time
	closed       bool

	closedCh chan struct{}
	wg       sync.WaitGroup
}

// NewCoordinator starts a coordinator service with an empty fleet.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 4
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = cfg.JobTimeout / 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.ConsecutiveTimeouts <= 0 {
		cfg.ConsecutiveTimeouts = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.RetryMaxBackoff <= 0 {
		cfg.RetryMaxBackoff = 5 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 15 * time.Second
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 100 * time.Millisecond
	}
	if cfg.RedialMaxBackoff <= 0 {
		cfg.RedialMaxBackoff = 5 * time.Second
	}
	if cfg.LocalWorkers <= 0 {
		cfg.LocalWorkers = runtime.NumCPU()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = &metrics.Registry{}
	}
	if cfg.Journal != nil {
		cfg.Journal.attach(reg)
	}
	c := &Coordinator{
		cfg:      cfg,
		reg:      reg,
		wake:     make(chan struct{}),
		runs:     make(map[uint64]*coordRun),
		workers:  make(map[string]*coordWorker),
		closedCh: make(chan struct{}),
	}
	if !cfg.DisableLocalFallback {
		for i := 0; i < cfg.LocalWorkers; i++ {
			c.wg.Add(1)
			go c.localLoop()
		}
	}
	c.wg.Add(1)
	go c.janitor()
	return c
}

// Metrics returns the coordinator's metrics registry.
func (c *Coordinator) Metrics() *metrics.Registry { return c.reg }

// AddWorker registers a worker address and starts driving it. A worker
// may join while audits are in flight; it starts pulling queued epochs as
// soon as its connection is up. Adding an existing address is a no-op.
func (c *Coordinator) AddWorker(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if _, ok := c.workers[addr]; ok {
		return
	}
	w := &coordWorker{c: c, addr: addr, stop: make(chan struct{})}
	c.workers[addr] = w
	c.reg.Gauge("workers_registered").Add(1)
	c.wg.Add(1)
	go w.loop()
}

// RemoveWorker unregisters a worker. Its outstanding epochs requeue and
// flow to the rest of the fleet; removing an unknown address is a no-op.
func (c *Coordinator) RemoveWorker(addr string) {
	c.mu.Lock()
	if w, ok := c.workers[addr]; ok {
		delete(c.workers, addr)
		c.reg.Gauge("workers_registered").Add(-1)
		close(w.stop)
		w.detachLocked(time.Now())
		c.retiredBusy += w.busy
	}
	c.mu.Unlock()
}

// ErrCoordinatorKilled is the error pending runs fail with when Kill
// simulates a coordinator crash.
var ErrCoordinatorKilled = errors.New("audit: coordinator killed")

// Close shuts the coordinator down: worker loops stop, and every epoch
// still pending fails its run with a coordinator-closed error.
func (c *Coordinator) Close() { c.shutdown(errors.New("audit: coordinator closed")) }

// Kill is Close for the chaos harness: it simulates the coordinator
// process dying mid-audit. Connections drop and pending runs fail with
// ErrCoordinatorKilled, and — critically — no run-completed records are
// journaled, which is exactly the state a restarted coordinator must
// recover from. (A real SIGKILL additionally loses the journal's unsynced
// batch; the dist-smoke harness covers that at the process level.)
func (c *Coordinator) Kill() { c.shutdown(ErrCoordinatorKilled) }

func (c *Coordinator) shutdown(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.closedCh)
	now := time.Now()
	for _, w := range c.workers {
		close(w.stop)
		w.detachLocked(now)
		c.retiredBusy += w.busy
	}
	c.workers = map[string]*coordWorker{}
	var pending []*coordTask
	for _, run := range c.runs {
		run.err = cause
		for _, t := range run.tasks {
			if !t.done {
				t.done = true
				t.queued = false
				pending = append(pending, t)
			}
		}
	}
	c.queue = nil
	c.reg.Gauge("queue_depth").Set(0)
	c.broadcastLocked()
	c.mu.Unlock()
	for _, t := range pending {
		t.finish()
	}
	c.wg.Wait()
}

// Backend returns the coordinator as an EpochBackend, for DistOptions.
// Concurrent audits through it interleave on one shared queue and fleet.
func (c *Coordinator) Backend() EpochBackend { return coordinatorBackend{c: c} }

// Audit runs one full audit through the coordinator: opts.Backend is
// replaced, everything else in opts applies unchanged.
func (c *Coordinator) Audit(a *Auditor, node sig.NodeID, nodeIdx uint32, entries []tevlog.Entry, auths []tevlog.Authenticator, opts DistOptions) (*Result, DistStats, error) {
	opts.Backend = c.Backend()
	return a.AuditFullDist(node, nodeIdx, entries, auths, opts)
}

// FleetStats is a point-in-time snapshot of the coordinator's operational
// state, for status lines and benchmark rows.
type FleetStats struct {
	WorkersRegistered   int
	WorkersLive         int
	QueueDepth          int
	EpochsDone          int64
	Retries             int64
	Hedges              int64
	Redials             int64
	HeartbeatTimeouts   int64
	Drains              int64
	LocalFallbackEpochs int64
	RetriesExhausted    int64
	// BusyNs is the cumulative time worker connections had at least one
	// job in flight, summed across the fleet (fleet utilization is
	// BusyNs / (wall × workers)).
	BusyNs int64
	// Journal counters (zero when no journal is configured): runs that
	// resumed from durable state, epochs whose verdicts were skipped as
	// already durable, and the journal file size.
	RunsResumed          int64
	EpochsSkippedDurable int64
	JournalBytes         int64
	// Registration counters (zero when no registration listener runs).
	RegistrationsAccepted int64
	RegistrationsRejected int64
}

// Stats snapshots the coordinator's fleet state.
func (c *Coordinator) Stats() FleetStats {
	now := time.Now()
	c.mu.Lock()
	busy := c.retiredBusy
	live := 0
	for _, w := range c.workers {
		busy += w.busy
		if w.conn != nil {
			live++
			if len(w.inflight) > 0 {
				busy += now.Sub(w.activeSince)
			}
		}
	}
	registered := len(c.workers)
	depth := len(c.queue)
	c.mu.Unlock()
	return FleetStats{
		WorkersRegistered:   registered,
		WorkersLive:         live,
		QueueDepth:          depth,
		EpochsDone:          c.reg.Counter("epochs_done").Value(),
		Retries:             c.reg.Counter("retries").Value(),
		Hedges:              c.reg.Counter("hedges").Value(),
		Redials:             c.reg.Counter("redials").Value(),
		HeartbeatTimeouts:   c.reg.Counter("heartbeat_timeouts").Value(),
		Drains:              c.reg.Counter("drains").Value(),
		LocalFallbackEpochs: c.reg.Counter("local_fallback_epochs").Value(),
		RetriesExhausted:    c.reg.Counter("retries_exhausted").Value(),
		BusyNs:              int64(busy),

		RunsResumed:           c.reg.Value("journal_runs_resumed"),
		EpochsSkippedDurable:  c.reg.Value("journal_epochs_skipped"),
		JournalBytes:          c.reg.Value("journal_bytes"),
		RegistrationsAccepted: c.reg.Value("registrations_accepted"),
		RegistrationsRejected: c.reg.Value("registrations_rejected"),
	}
}

// coordinatorBackend adapts the coordinator to the router's backend seam.
type coordinatorBackend struct {
	c        *Coordinator
	deltaSrc func(k uint32) (*snapshot.Delta, error)
}

// Remote implements EpochBackend: jobs ship whole, starts pre-verified.
func (b coordinatorBackend) Remote() bool { return true }

// withDelta implements deltaCapable: runs enqueued through the returned
// backend ship epochs as proof-carrying delta chains per worker connection.
func (b coordinatorBackend) withDelta(src func(k uint32) (*snapshot.Delta, error)) EpochBackend {
	b.deltaSrc = src
	return b
}

// Run implements EpochBackend by enqueueing the jobs and blocking until
// every one settles.
func (b coordinatorBackend) Run(sess Session, jobs []*EpochJob, skip func(int) bool, emit func(EpochVerdict)) error {
	return b.c.enqueueRun(sess, jobs, skip, emit, b.deltaSrc)
}

// enqueueRun puts one audit's epochs on the shared queue and waits.
func (c *Coordinator) enqueueRun(sess Session, jobs []*EpochJob, skip func(int) bool, emit func(EpochVerdict), deltaSrc func(k uint32) (*snapshot.Delta, error)) error {
	if len(jobs) == 0 {
		return nil
	}
	sessFrame := sessionToWire(sess).Marshal()

	// With a journal, derive the run's stable key and pull any durable
	// verdicts a crashed predecessor left behind. Resumed epochs never
	// touch the queue; their stored verdicts re-emit below.
	j := c.cfg.Journal
	var key [32]byte
	var resumed map[int][]byte
	if j != nil {
		key = runKeyFor(sess, jobs)
		resumed = j.resume(key, len(jobs))
	}

	now := time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("audit: coordinator is closed")
	}
	c.nextRun++
	run := &coordRun{
		id: c.nextRun, sess: sess, frame: sessFrame, skip: skip, emit: emit,
		deltaSrc: deltaSrc,
		tasks:    make(map[int]*coordTask, len(jobs)), total: len(jobs),
		done:      make(chan struct{}),
		key:       key,
		journaled: j != nil,
	}
	type storedVerdict struct {
		t *coordTask
		v *wire.AuditVerdict
	}
	var stored []storedVerdict
	for _, job := range jobs {
		t := &coordTask{
			run: run, job: job, index: job.Index,
			eligibleAt: now, enqueuedAt: now, triedOn: make(map[string]bool),
		}
		run.tasks[job.Index] = t
		if enc, ok := resumed[job.Index]; ok {
			if v, perr := wire.ParseAuditVerdict(enc); perr == nil && int(v.Index) == job.Index {
				// Durable in the journal: settle without ever dispatching.
				t.done = true
				stored = append(stored, storedVerdict{t, v})
				continue
			}
		}
		t.queued = true
		c.queue = append(c.queue, t)
	}
	c.runs[run.id] = run
	c.reg.Gauge("queue_depth").Set(int64(len(c.queue)))
	c.broadcastLocked()
	c.mu.Unlock()

	if j != nil {
		if resumed == nil {
			j.runEnqueued(key, string(sess.Node), len(jobs))
		} else {
			c.reg.Counter("journal_runs_resumed").Inc()
		}
	}
	// Re-emit stored verdicts outside the lock: they flow through the
	// router exactly as a worker's verdict would — spot rechecks included,
	// so a tampered journal is caught like a lying worker — and the
	// resumed audit's Result stays byte-identical to an uninterrupted run.
	for _, sv := range stored {
		r := verdictFromWire(sv.v)
		c.reg.Counter("journal_epochs_skipped").Inc()
		run.emit(EpochVerdict{Index: sv.t.index, Stats: r.stats, Fault: r.fault, Worker: "journal"})
		sv.t.finish()
	}

	<-run.done

	c.mu.Lock()
	delete(c.runs, run.id)
	c.endSessionLocked(run.id)
	err := run.err
	c.mu.Unlock()
	if err == nil && j != nil {
		j.runCompleted(key)
	}
	return err
}

// endSessionLocked forgets a settled run on every worker connection that
// registered its session and queues the end frame the connection's sender
// writes, so neither end of the connection holds the run past its
// settlement.
func (c *Coordinator) endSessionLocked(runID uint64) {
	ended := false
	for _, w := range c.workers {
		if _, ok := w.sentRuns[runID]; ok {
			delete(w.sentRuns, runID)
			w.endRuns = append(w.endRuns, runID)
			c.reg.Gauge("runs_tracked").Add(-1)
			ended = true
		}
	}
	if ended {
		c.broadcastLocked()
	}
}

// broadcastLocked wakes every goroutine parked on the queue.
func (c *Coordinator) broadcastLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Coordinator) liveConnsLocked() int {
	n := 0
	for _, w := range c.workers {
		if w.conn != nil {
			n++
		}
	}
	return n
}

// backoffDelay is the capped exponential re-dispatch delay with
// deterministic jitter in [1/2, 1) of the exponential step.
func (c *Coordinator) backoffDelay(index, attempt int) time.Duration {
	d := c.cfg.RetryBackoff
	for i := 1; i < attempt && d < c.cfg.RetryMaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.RetryMaxBackoff {
		d = c.cfg.RetryMaxBackoff
	}
	frac := float64(splitmix64(c.cfg.BackoffSeed^uint64(index)<<20^uint64(attempt))>>11) / float64(1<<53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// requeueLocked returns a task to the queue after delay. counter names
// the metric charged for the requeue ("" for hedges).
func (c *Coordinator) requeueLocked(t *coordTask, delay time.Duration, counter string) {
	if c.closed || t.done || t.queued {
		return
	}
	t.queued = true
	t.eligibleAt = time.Now().Add(delay)
	c.queue = append(c.queue, t)
	c.reg.Gauge("queue_depth").Set(int64(len(c.queue)))
	if counter != "" {
		c.reg.Counter(counter).Inc()
	}
	c.broadcastLocked()
}

// failTaskLocked marks a task failed; the caller must pass it to
// failTasks once the lock is released so the error verdict emits.
func (c *Coordinator) failTaskLocked(t *coordTask, err error, counter string) *coordTask {
	t.done = true
	t.queued = false
	t.failErr = err
	if counter != "" {
		c.reg.Counter(counter).Inc()
	}
	return t
}

// failTasks emits the error verdicts for tasks failed under the lock.
func (c *Coordinator) failTasks(tasks []*coordTask) {
	for _, t := range tasks {
		t.run.emit(EpochVerdict{
			Index: t.index, Err: t.failErr,
			Worker: "(exhausted)", Attempts: t.attempts, WireBytes: t.wireBytes,
			WireBytesFull: t.fullBytes, WireBytesDelta: t.deltaBytes,
			DeltaShipped: t.deltaSent, DeltaFallbacks: t.deltaFalls,
		})
		t.finish()
	}
}

func (c *Coordinator) exhaustedErr(t *coordTask) error {
	return fmt.Errorf("audit: epoch %d exhausted %d coordinator dispatch attempts: %w",
		t.index, c.cfg.MaxAttempts, ErrRetriesExhausted)
}

// takeLocked pops the next dispatchable task for worker w (nil for the
// local-fallback pool, which ignores placement history). It settles
// skippable tasks, drops exhausted ones into failed (emit after unlock),
// and reports the earliest future eligibility when nothing is ready.
// Placement prefers workers that have not tried the task: as long as some
// other live worker is untried, the task waits for it, which guarantees
// an epoch eventually reaches an honest worker in any fleet that has one.
func (c *Coordinator) takeLocked(w *coordWorker, now time.Time) (picked *coordTask, nextAt time.Time, failed []*coordTask) {
	out := c.queue[:0]
	for i := 0; i < len(c.queue); i++ {
		t := c.queue[i]
		if t.done || !t.queued {
			continue
		}
		if t.run.skip(t.index) {
			// Past the earliest-fault cutoff: this epoch can no longer
			// affect the merged verdict. Settle it if nothing is in
			// flight; otherwise the outstanding dispatch resolves it.
			t.queued = false
			if t.inflight == 0 {
				t.done = true
				t.finish()
			}
			continue
		}
		if t.eligibleAt.After(now) {
			if nextAt.IsZero() || t.eligibleAt.Before(nextAt) {
				nextAt = t.eligibleAt
			}
			out = append(out, t)
			continue
		}
		if t.attempts >= c.cfg.MaxAttempts {
			t.queued = false
			if t.inflight == 0 {
				failed = append(failed, c.failTaskLocked(t, c.exhaustedErr(t), "retries_exhausted"))
			}
			continue
		}
		if w != nil && t.triedOn[w.addr] && c.hasUntriedLiveLocked(t, w) {
			out = append(out, t)
			continue
		}
		t.queued = false
		t.attempts++
		if w != nil {
			t.triedOn[w.addr] = true
		}
		picked = t
		out = append(out, c.queue[i+1:]...)
		break
	}
	c.queue = out
	c.reg.Gauge("queue_depth").Set(int64(len(c.queue)))
	return picked, nextAt, failed
}

// hasUntriedLiveLocked reports whether a live worker other than asking
// has not yet tried the task.
func (c *Coordinator) hasUntriedLiveLocked(t *coordTask, asking *coordWorker) bool {
	for addr, w := range c.workers {
		if w == asking || w.conn == nil {
			continue
		}
		if !t.triedOn[addr] {
			return true
		}
	}
	return false
}

// deliverRemote hands a worker's verdict to its run: first verdict wins,
// a hedge's or straggler's duplicate only clears the dispatch slot. The
// emit runs outside the lock — spot rechecks replay locally and must not
// stall the fleet.
func (c *Coordinator) deliverRemote(w *coordWorker, runID uint64, v *wire.AuditVerdict, nbytes int) {
	now := time.Now()
	index := int(v.Index)
	c.mu.Lock()
	key := taskKey{run: runID, index: index}
	if disp, ok := w.inflight[key]; ok {
		w.dropDispatchLocked(key, now)
		disp.task.inflight--
		w.timeouts = 0
		c.broadcastLocked() // a pipeline slot freed
	}
	run := c.runs[runID]
	if run == nil {
		c.mu.Unlock()
		return
	}
	t := run.tasks[index]
	if t == nil || t.done {
		c.mu.Unlock()
		return
	}
	t.done = true
	t.queued = false
	t.wireBytes += nbytes
	ev := EpochVerdict{
		Index: index, Worker: w.addr, Attempts: t.attempts, WireBytes: t.wireBytes,
		WireBytesFull: t.fullBytes, WireBytesDelta: t.deltaBytes,
		DeltaShipped: t.deltaSent, DeltaFallbacks: t.deltaFalls,
	}
	c.reg.Counter("epochs_done").Inc()
	c.mu.Unlock()
	if run.journaled {
		// Write ahead of the emit: once the router sees this verdict it may
		// settle the audit, and a crash after that must find it durable.
		c.cfg.Journal.verdictEmitted(run.key, index, v.Marshal())
	}
	r := verdictFromWire(v)
	ev.Stats = r.stats
	ev.Fault = r.fault
	run.emit(ev)
	t.finish()
}

// deltaFallback handles a worker's need-state notice: the worker no longer
// holds the base state a delta-encoded dispatch chained from (its cache
// evicted it, or a restarted worker answered behind the same address). The
// dispatch slot frees, the connection's model of that run's worker state is
// marked for invalidation (the sender goroutine owns the tracker and resets
// it before its next ship), and the epoch requeues with no backoff — the
// invalidated tracker makes the re-dispatch ship the full state.
func (c *Coordinator) deltaFallback(w *coordWorker, runID uint64, index int) {
	now := time.Now()
	c.mu.Lock()
	key := taskKey{run: runID, index: index}
	if disp, ok := w.inflight[key]; ok {
		w.dropDispatchLocked(key, now)
		disp.task.inflight--
		w.timeouts = 0
	}
	if w.needReset == nil {
		w.needReset = make(map[uint64]bool)
	}
	w.needReset[runID] = true
	if run := c.runs[runID]; run != nil {
		if t := run.tasks[index]; t != nil && !t.done {
			t.deltaFalls++
			c.reg.Counter("delta_fallbacks").Inc()
			c.requeueLocked(t, 0, "")
		}
	}
	c.broadcastLocked() // the freed pipeline slot, even when the requeue no-ops
	c.mu.Unlock()
}

// worker connection driving ------------------------------------------------

func (w *coordWorker) stopped() bool {
	select {
	case <-w.stop:
		return true
	default:
		return false
	}
}

// addDispatchLocked and dropDispatchLocked maintain the busy-time
// accounting: a connection is busy while it has at least one job in
// flight.
func (w *coordWorker) addDispatchLocked(key taskKey, disp *coordDispatch, now time.Time) {
	if len(w.inflight) == 0 {
		w.activeSince = now
	}
	w.inflight[key] = disp
}

func (w *coordWorker) dropDispatchLocked(key taskKey, now time.Time) {
	delete(w.inflight, key)
	if len(w.inflight) == 0 {
		w.busy += now.Sub(w.activeSince)
	}
}

// detachLocked drops the live connection: outstanding epochs requeue
// (with backoff — this connection just failed them) and the fleet gauge
// falls. Idempotent; safe when no connection is up.
func (w *coordWorker) detachLocked(now time.Time) {
	if w.conn == nil {
		return
	}
	w.conn.Close()
	w.conn = nil
	c := w.c
	// The worker drops every session with the connection.
	c.reg.Gauge("runs_tracked").Add(-int64(len(w.sentRuns)))
	w.sentRuns = nil
	w.endRuns = nil
	for key, disp := range w.inflight {
		t := disp.task
		w.dropDispatchLocked(key, now)
		t.inflight--
		if !t.done {
			c.requeueLocked(t, c.backoffDelay(t.index, t.attempts), "retries")
		}
	}
	c.reg.Gauge("workers_live").Add(-1)
	c.broadcastLocked()
}

// detachConn is detachLocked if conn is still the live connection.
func (c *Coordinator) detachConn(w *coordWorker, conn net.Conn) {
	c.mu.Lock()
	if w.conn == conn {
		w.detachLocked(time.Now())
	}
	c.mu.Unlock()
}

// scanLocked enforces per-dispatch deadlines on this connection: a job
// past JobTimeout requeues (and counts toward reaping the connection as
// hung); a job past HedgeAfter with no second copy in flight hedges. The
// returned tasks exhausted their budget and must go to failTasks.
func (w *coordWorker) scanLocked(now time.Time) (failed []*coordTask) {
	c := w.c
	for key, disp := range w.inflight {
		t := disp.task
		age := now.Sub(disp.sentAt)
		switch {
		case age >= c.cfg.JobTimeout:
			w.dropDispatchLocked(key, now)
			t.inflight--
			w.timeouts++
			if t.done {
				continue
			}
			if t.attempts >= c.cfg.MaxAttempts && t.inflight == 0 && !t.queued {
				failed = append(failed, c.failTaskLocked(t, c.exhaustedErr(t), "retries_exhausted"))
			} else {
				c.requeueLocked(t, 0, "retries")
			}
		case c.cfg.HedgeAfter > 0 && age >= c.cfg.HedgeAfter && !t.hedged &&
			!t.done && !t.queued && t.inflight == 1 && t.attempts < c.cfg.MaxAttempts:
			t.hedged = true
			c.reg.Counter("hedges").Inc()
			c.requeueLocked(t, 0, "")
		}
	}
	if w.timeouts >= c.cfg.ConsecutiveTimeouts {
		// A connection that keeps accepting jobs and never answers is
		// hung, not slow: reap it so the redial loop replaces it.
		w.detachLocked(now)
	}
	return failed
}

// senderWaitLocked is how long the sender may park: until the next
// eligibility, ping, hedge or timeout deadline.
func (w *coordWorker) senderWaitLocked(now, nextAt, lastPing time.Time) time.Duration {
	c := w.c
	wait := c.cfg.HeartbeatEvery - now.Sub(lastPing)
	if !nextAt.IsZero() {
		if d := nextAt.Sub(now); d < wait {
			wait = d
		}
	}
	for _, disp := range w.inflight {
		deadline := disp.sentAt.Add(c.cfg.JobTimeout)
		if c.cfg.HedgeAfter > 0 && !disp.task.hedged {
			if h := disp.sentAt.Add(c.cfg.HedgeAfter); h.Before(deadline) {
				deadline = h
			}
		}
		if d := deadline.Sub(now); d < wait {
			wait = d
		}
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait
}

// loop dials the worker forever: immediately again after a connection
// that carried traffic, under capped exponential backoff otherwise (a
// partitioned or dead worker), until the worker is removed or the
// coordinator closes.
func (w *coordWorker) loop() {
	c := w.c
	defer c.wg.Done()
	delay := c.cfg.RedialBackoff
	dials := 0
	for {
		if w.stopped() || c.isClosed() {
			return
		}
		if dials > 0 {
			c.reg.Counter("redials").Inc()
		}
		dials++
		conn, err := net.DialTimeout("tcp", w.addr, c.cfg.DialTimeout)
		if err == nil {
			if w.serveConn(conn) {
				delay = c.cfg.RedialBackoff
				continue
			}
		}
		select {
		case <-w.stop:
			return
		case <-time.After(delay):
		}
		delay *= 2
		if delay > c.cfg.RedialMaxBackoff {
			delay = c.cfg.RedialMaxBackoff
		}
	}
}

// serveConn drives one live connection: this goroutine is the sender
// (jobs, session frames, pings) and deadline enforcer; a reader goroutine
// delivers verdicts and pongs. Returns whether the connection ever
// carried a frame back — the redial loop's backoff signal.
func (w *coordWorker) serveConn(conn net.Conn) bool {
	c := w.c
	c.mu.Lock()
	if c.closed || w.stopped() {
		c.mu.Unlock()
		conn.Close()
		return false
	}
	w.conn = conn
	w.inflight = make(map[taskKey]*coordDispatch)
	w.sentRuns = make(map[uint64]struct{})
	w.endRuns = nil
	w.trackers = make(map[uint64]*deltaTracker)
	w.needReset = nil
	w.timeouts = 0
	c.reg.Gauge("workers_live").Add(1)
	c.broadcastLocked()
	c.mu.Unlock()

	var traffic atomic.Bool
	readerDone := make(chan struct{})
	go w.readLoop(conn, readerDone, &traffic)

	var pingSeq uint64
	lastPing := time.Now()
send:
	for {
		now := time.Now()
		c.mu.Lock()
		if c.closed || w.stopped() || w.conn != conn {
			c.mu.Unlock()
			break
		}
		failed := w.scanLocked(now)
		if w.conn != conn { // scan reaped this connection as hung
			c.mu.Unlock()
			c.failTasks(failed)
			break
		}
		var t *coordTask
		var nextAt time.Time
		if len(w.inflight) < c.cfg.Pipeline {
			var more []*coordTask
			t, nextAt, more = c.takeLocked(w, now)
			failed = append(failed, more...)
		}
		var sessFrame []byte
		var runID uint64
		if t != nil {
			runID = t.run.id
			if _, ok := w.sentRuns[runID]; !ok {
				w.sentRuns[runID] = struct{}{}
				c.reg.Gauge("runs_tracked").Add(1)
				sessFrame = t.run.frame
			}
			t.inflight++
			w.addDispatchLocked(taskKey{run: runID, index: t.index}, &coordDispatch{task: t, sentAt: now}, now)
		}
		var resetRuns []uint64
		if len(w.needReset) > 0 {
			for id := range w.needReset {
				resetRuns = append(resetRuns, id)
			}
			w.needReset = nil
		}
		ends := w.endRuns
		w.endRuns = nil
		wait := w.senderWaitLocked(now, nextAt, lastPing)
		wakeCh := c.wake
		c.mu.Unlock()
		c.failTasks(failed)
		for _, id := range resetRuns {
			w.trackers[id].invalidate()
		}
		if len(ends) > 0 {
			// A settled run's jobs are all written (a run settles only
			// after every task did, and the sender writes a task's frames
			// before its next pass), so the end frame follows them.
			conn.SetWriteDeadline(time.Now().Add(c.cfg.JobTimeout))
			for _, id := range ends {
				delete(w.trackers, id)
				if writeDistFrame(conn, wire.DistFrameMuxSessionEnd, wire.AppendMuxID(id, nil)) != nil {
					break send
				}
			}
		}

		if t != nil {
			conn.SetWriteDeadline(time.Now().Add(c.cfg.JobTimeout))
			if sessFrame != nil {
				if writeDistFrame(conn, wire.DistFrameMuxSession, wire.AppendMuxID(runID, sessFrame)) != nil {
					break
				}
			}
			kind := wire.DistFrameMuxJob
			var frame []byte
			if src := t.run.deltaSrc; src != nil {
				tr := w.trackers[runID]
				if tr == nil {
					tr = &deltaTracker{src: src}
					w.trackers[runID] = tr
				}
				if df, derr := tr.deltaFrame(t.job); derr == nil {
					kind, frame = wire.DistFrameMuxDeltaJob, df
				}
			}
			delta := frame != nil
			if frame == nil {
				if frame = t.frame(); frame == nil {
					// The task settled on another copy and released its
					// state before this one shipped: free the slot.
					key := taskKey{run: runID, index: t.index}
					c.mu.Lock()
					if _, ok := w.inflight[key]; ok && w.conn == conn {
						w.dropDispatchLocked(key, time.Now())
						t.inflight--
					}
					c.mu.Unlock()
					continue
				}
				w.trackers[runID].noteFull(t.job)
			}
			if writeDistFrame(conn, kind, wire.AppendMuxID(runID, frame)) != nil {
				break
			}
			c.mu.Lock()
			t.wireBytes += len(frame)
			if delta {
				t.deltaBytes += len(frame)
				t.deltaSent++
			} else {
				t.fullBytes += len(frame)
			}
			c.mu.Unlock()
			continue
		}

		if now.Sub(lastPing) >= c.cfg.HeartbeatEvery {
			pingSeq++
			conn.SetWriteDeadline(now.Add(c.cfg.HeartbeatEvery))
			if writeDistFrame(conn, wire.DistFramePing, binary.AppendUvarint(nil, pingSeq)) != nil {
				break
			}
			lastPing = time.Now()
			continue
		}

		timer := time.NewTimer(wait)
		select {
		case <-readerDone:
			timer.Stop()
			break send
		case <-w.stop:
			timer.Stop()
			break send
		case <-wakeCh:
		case <-timer.C:
		}
		timer.Stop()
	}
	c.detachConn(w, conn)
	conn.Close()
	<-readerDone
	return traffic.Load()
}

// readLoop receives verdicts, pongs and drain notices. Any frame resets
// the liveness deadline; a deadline expiry is a missed heartbeat and
// kills the connection.
func (w *coordWorker) readLoop(conn net.Conn, done chan struct{}, traffic *atomic.Bool) {
	defer close(done)
	c := w.c
	idle := c.cfg.HeartbeatEvery*time.Duration(c.cfg.HeartbeatMisses) + c.cfg.HeartbeatEvery/2
	for {
		conn.SetReadDeadline(time.Now().Add(idle))
		kind, body, err := readDistFrame(conn)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.reg.Counter("heartbeat_timeouts").Inc()
			}
			return
		}
		traffic.Store(true)
		switch kind {
		case wire.DistFrameMuxVerdict:
			runID, rest, err := wire.SplitMuxID(body)
			if err != nil {
				return
			}
			v, err := wire.ParseAuditVerdict(rest)
			if err != nil {
				return
			}
			c.deliverRemote(w, runID, v, len(rest))
		case wire.DistFrameMuxNeedState:
			runID, rest, err := wire.SplitMuxID(body)
			if err != nil {
				return
			}
			idx, err := wire.ParseNeedState(rest)
			if err != nil {
				return
			}
			c.deltaFallback(w, runID, int(idx))
		case wire.DistFrameMuxSessionOK, wire.DistFramePong:
			// Liveness was the point; the deadline reset above is the work.
		case wire.DistFrameDrain:
			// The worker is winding down: drop the connection so its
			// outstanding epochs redistribute, and let the redial loop
			// discover whether it comes back.
			c.reg.Counter("drains").Inc()
			return
		default:
			return
		}
	}
}

// local fallback ------------------------------------------------------------

// localLoop replays queued epochs in-process whenever no worker
// connection is live — the graceful-degradation path that keeps an audit
// moving with an empty or fully-partitioned fleet.
func (c *Coordinator) localLoop() {
	defer c.wg.Done()
	for {
		now := time.Now()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		var t *coordTask
		var nextAt time.Time
		var failed []*coordTask
		if c.liveConnsLocked() == 0 {
			t, nextAt, failed = c.takeLocked(nil, now)
			if t != nil {
				t.inflight++
			}
		}
		wakeCh := c.wake
		c.mu.Unlock()
		c.failTasks(failed)
		if t == nil {
			wait := 500 * time.Millisecond
			if !nextAt.IsZero() {
				if d := nextAt.Sub(now); d < wait {
					wait = d
				}
			}
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			timer := time.NewTimer(wait)
			select {
			case <-wakeCh:
			case <-timer.C:
			}
			timer.Stop()
			continue
		}
		job := t.replayJob()
		if job == nil {
			// Settled by a worker's verdict meanwhile.
			c.mu.Lock()
			t.inflight--
			c.mu.Unlock()
			continue
		}
		r := runEpochJob(t.run.sess, job, nil)
		c.reg.Counter("local_fallback_epochs").Inc()
		c.mu.Lock()
		t.inflight--
		if t.done {
			c.mu.Unlock()
			continue
		}
		t.done = true
		t.queued = false
		ev := EpochVerdict{
			Index: t.index, Stats: r.stats, Fault: r.fault,
			Worker: "local-fallback", Attempts: t.attempts, WireBytes: t.wireBytes,
			WireBytesFull: t.fullBytes, WireBytesDelta: t.deltaBytes,
			DeltaShipped: t.deltaSent, DeltaFallbacks: t.deltaFalls,
		}
		c.reg.Counter("epochs_done").Inc()
		c.mu.Unlock()
		if t.run.journaled {
			c.cfg.Journal.verdictEmitted(t.run.key, t.index, verdictToWire(t.index, r).Marshal())
		}
		t.run.emit(ev)
		t.finish()
	}
}

// janitor fails queued epochs that nothing can ever dispatch: local
// fallback disabled and no live connection for a full JobTimeout. Without
// it an audit against a dead fleet would block forever instead of
// surfacing a transport error.
func (c *Coordinator) janitor() {
	defer c.wg.Done()
	tick := c.cfg.JobTimeout / 8
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-c.closedCh:
			return
		case <-ticker.C:
		}
		now := time.Now()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		var failed []*coordTask
		if c.cfg.DisableLocalFallback && c.liveConnsLocked() == 0 {
			if c.starvedSince.IsZero() {
				c.starvedSince = now
			}
			if now.Sub(c.starvedSince) >= c.cfg.JobTimeout {
				out := c.queue[:0]
				for _, t := range c.queue {
					if t.done || !t.queued {
						continue
					}
					if t.inflight == 0 {
						failed = append(failed, c.failTaskLocked(t,
							fmt.Errorf("audit: epoch %d undispatchable: no live workers and local fallback is disabled", t.index), ""))
						continue
					}
					out = append(out, t)
				}
				c.queue = out
				c.reg.Gauge("queue_depth").Set(int64(len(c.queue)))
			}
		} else {
			c.starvedSince = time.Time{}
		}
		c.mu.Unlock()
		c.failTasks(failed)
	}
}
