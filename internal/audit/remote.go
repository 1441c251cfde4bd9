package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snapshot"
	"repro/internal/wire"
)

// This file is the real-network epoch backend: a length-prefixed TCP
// protocol between an audit coordinator (TCPBackend) and scenario-agnostic
// replay workers (ServeEpochWorker / `avm-audit -serve`). One connection
// carries one session: the coordinator opens with the reference
// configuration (image, node, RNG seed), then streams epoch jobs and reads
// verdicts, tagged by epoch index so late verdicts from a straggler never
// desynchronize the stream.
//
// Failure handling is per epoch: a connection error or crash mid-epoch
// requeues the job for another worker under capped exponential backoff
// with deterministic jitter; a verdict slower than JobTimeout is
// re-dispatched immediately to a different worker while the original stays
// outstanding (a hedge — first verdict wins, duplicates are deduplicated);
// and a worker that times out repeatedly is abandoned. The audit errors
// out only when an epoch exhausts MaxAttempts (ErrRetriesExhausted) or
// every worker is gone.

// frame i/o -----------------------------------------------------------------

// writeDistFrame writes one length-prefixed protocol frame.
func writeDistFrame(w io.Writer, kind wire.DistFrameKind, body []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(body)))
	hdr[4] = byte(kind)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// frameReadChunk is the most readDistFrame allocates for a frame body
// before any of it arrives: a full-state job for the 128–256 KiB guests
// fits in one allocation, and a larger body doubles the buffer as its
// bytes come in.
const frameReadChunk = 512 << 10

// readDistFrame reads one length-prefixed protocol frame. The body buffer
// grows with the bytes actually received, so a peer that declares a huge
// frame and sends little costs about what it sent, not the declared
// length (up to wire.MaxDistFrame).
func readDistFrame(r io.Reader) (wire.DistFrameKind, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 {
		return 0, nil, errors.New("audit: empty protocol frame")
	}
	if n > wire.MaxDistFrame {
		return 0, nil, wire.ErrFrameTooLarge
	}
	body := make([]byte, 0, min(n, frameReadChunk))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), len(body)))
		}
		m := min(n, cap(body))
		if _, err := io.ReadFull(r, body[len(body):m]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		body = body[:m]
	}
	return wire.DistFrameKind(body[0]), body[1:], nil
}

// worker side ---------------------------------------------------------------

// ServeEpochWorker accepts coordinator connections on l and replays epoch
// jobs until the listener closes — the one-shot entry point kept for
// callers that never drain. Long-running deployments use an EpochWorker,
// which adds graceful drain and the multiplexed coordinator protocol.
func ServeEpochWorker(l net.Listener) error {
	return (&EpochWorker{}).Serve(l)
}

// EpochWorker is a scenario-agnostic replay worker. It holds no trust:
// everything a replay needs arrives in session and job frames, and the
// coordinator verifies what comes back (root checks before dispatch, spot
// re-replays after). One worker serves two protocols, discriminated by a
// connection's first frame:
//
//   - the PR-5 one-shot protocol (DistFrameSession then synchronous jobs),
//     spoken by TCPBackend;
//   - the multiplexed service protocol (DistFrameMuxSession /
//     DistFrameMuxJob / DistFrameMuxSessionEnd / DistFramePing), spoken by
//     the Coordinator: one connection carries many audit sessions,
//     pipelined jobs replay in arrival order on a per-connection executor,
//     and pings are answered from the read loop even while a replay runs.
//
// Each multiplexed session lives from its DistFrameMuxSession (register:
// the reference configuration, parsed once) through its job frames to the
// DistFrameMuxSessionEnd the coordinator sends when the audit run settles;
// the end drops the session, and jobs already queued for it replay with
// their own copy. A connection therefore holds its live sessions, at most
// stateCacheSize verified start states for delta jobs, and its queued
// jobs — not a trace of every audit it ever carried.
//
// Jobs within a connection replay one at a time, so a deployment's
// parallelism is its worker count; pipelining exists to hide the wire
// round-trip, not to multiply CPU.
type EpochWorker struct {
	// Chaos, when non-nil, perturbs this worker per a deterministic fault
	// plan — the fault-injection harness. Nil means honest.
	Chaos *ChaosPlan
	// IdleTimeout reaps multiplexed connections with no traffic (a
	// coordinator that died without closing). <= 0 selects 5m; heartbeats
	// keep healthy connections far below it.
	IdleTimeout time.Duration

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	draining  bool

	inflight sync.WaitGroup // accepted jobs not yet answered
	connSeq  atomic.Int64
	jobSeq   atomic.Int64
	sessions atomic.Int64 // multiplexed sessions registered and not yet ended
}

// Sessions reports the multiplexed audit sessions the worker holds across
// its connections: registered, not yet ended, on a live connection.
func (w *EpochWorker) Sessions() int { return int(w.sessions.Load()) }

// Serve accepts coordinator connections until the listener closes. It
// returns nil when the worker was drained, the accept error otherwise.
func (w *EpochWorker) Serve(l net.Listener) error {
	w.mu.Lock()
	if w.listeners == nil {
		w.listeners = make(map[net.Listener]struct{})
		w.conns = make(map[net.Conn]struct{})
	}
	draining := w.draining
	w.listeners[l] = struct{}{}
	w.mu.Unlock()
	if draining {
		l.Close()
		return nil
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			w.mu.Lock()
			delete(w.listeners, l)
			draining := w.draining
			w.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		if w.Chaos != nil && !w.Chaos.admitConn(int(w.connSeq.Add(1))) {
			// Partition plan: the link to this worker is down; refuse the
			// connection outright and let the coordinator's redial backoff
			// knock until the partition heals.
			conn.Close()
			continue
		}
		w.mu.Lock()
		if w.draining {
			w.mu.Unlock()
			conn.Close()
			continue
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		go func() {
			defer func() {
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
				conn.Close()
			}()
			if err := w.serveConn(conn); err != nil && !errors.Is(err, io.EOF) {
				// Report protocol errors while the connection still works; a
				// broken pipe just ends the session — the coordinator's
				// retry owns recovery.
				_ = writeDistFrame(conn, wire.DistFrameError, []byte(err.Error()))
			}
		}()
	}
}

// Drain gracefully winds the worker down: stop accepting connections,
// refuse new jobs (each refusal is answered with DistFrameDrain so the
// coordinator re-dispatches immediately instead of waiting out a timeout),
// and wait up to timeout for in-flight epochs to finish before closing the
// remaining connections.
func (w *EpochWorker) Drain(timeout time.Duration) {
	w.mu.Lock()
	w.draining = true
	for l := range w.listeners {
		l.Close()
	}
	w.mu.Unlock()

	done := make(chan struct{})
	go func() {
		w.inflight.Wait()
		close(done)
	}()
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	select {
	case <-done:
	case <-time.After(timeout):
	}

	w.mu.Lock()
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (w *EpochWorker) Draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// serveConn discriminates the two protocols by the first frame.
func (w *EpochWorker) serveConn(conn net.Conn) error {
	kind, body, err := readDistFrame(conn)
	if err != nil {
		return err
	}
	switch kind {
	case wire.DistFrameSession:
		return w.serveLegacyConn(conn, body)
	case wire.DistFrameMuxSession, wire.DistFramePing:
		return w.serveMuxConn(conn, kind, body)
	}
	return fmt.Errorf("audit: worker expected session frame, got kind %d", kind)
}

// serveLegacyConn runs one PR-5 coordinator session: session frame, then
// synchronous jobs.
func (w *EpochWorker) serveLegacyConn(conn net.Conn, body []byte) error {
	ws, err := wire.ParseAuditSession(body)
	if err != nil {
		return err
	}
	sess, err := sessionFromWire(ws)
	if err != nil {
		return err
	}
	if err := writeDistFrame(conn, wire.DistFrameSessionOK, nil); err != nil {
		return err
	}
	// cache holds this connection's verified start states for delta-job
	// reconstruction; it lives and dies with the connection.
	cache := newStateCache()
	for {
		kind, body, err := readDistFrame(conn)
		if err != nil {
			return err
		}
		if kind != wire.DistFrameJob && kind != wire.DistFrameDeltaJob {
			return fmt.Errorf("audit: worker expected job frame, got kind %d", kind)
		}
		if w.Draining() {
			if err := writeDistFrame(conn, wire.DistFrameDrain, nil); err != nil {
				return err
			}
			continue
		}
		var job *EpochJob
		if kind == wire.DistFrameDeltaJob {
			wj, err := wire.ParseAuditDeltaJob(body)
			if err != nil {
				return err
			}
			resolved, fault, rerr := resolveDeltaJob(sess, wj, cache)
			if errors.Is(rerr, errNeedState) {
				// The base was evicted (or never arrived); ask the
				// coordinator to re-ship the full state.
				if err := writeDistFrame(conn, wire.DistFrameNeedState, wire.MarshalNeedState(wj.Index)); err != nil {
					return err
				}
				continue
			}
			if fault != nil {
				// The delta chain failed fold verification: the coordinator
				// (or whoever doctored the chain) is caught before any
				// replay work, with the same fault a corrupt full state
				// yields.
				v := verdictToWire(int(wj.Index), epochResult{fault: fault}).Marshal()
				if err := writeDistFrame(conn, wire.DistFrameVerdict, v); err != nil {
					return err
				}
				continue
			}
			job = resolved
		} else {
			wj, err := wire.ParseAuditJob(body)
			if err != nil {
				return err
			}
			job = jobFromWire(wj)
			// Remember the shipped start state so later jobs can arrive as
			// delta chains against it. Unverified entry is safe: every use
			// re-verifies against a committed root (resolveDeltaJob checks
			// the fold result, runEpochJob seed-verifies before replay).
			cache.put(job.Start)
		}
		w.inflight.Add(1)
		verdict, reply := w.runJobMaybeChaotic(sess, job, conn, nil, cache)
		w.inflight.Done()
		if !reply {
			continue
		}
		if err := writeDistFrame(conn, wire.DistFrameVerdict, verdict); err != nil {
			return err
		}
	}
}

// muxWork is one pipelined job queued for a connection's executor. Exactly
// one of job / deltaJob is set; delta jobs resolve on the executor
// goroutine, which owns the connection's state cache.
type muxWork struct {
	sessID   uint64
	sess     Session
	job      *EpochJob
	deltaJob *wire.AuditDeltaJob
}

// serveMuxConn runs the multiplexed service protocol: this goroutine is
// the read loop (it answers pings immediately, even mid-replay — liveness
// probes measure the worker, not the current epoch), and a per-connection
// executor goroutine replays queued jobs in arrival order.
func (w *EpochWorker) serveMuxConn(conn net.Conn, firstKind wire.DistFrameKind, firstBody []byte) error {
	var wmu sync.Mutex
	write := func(kind wire.DistFrameKind, body []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(time.Minute))
		return writeDistFrame(conn, kind, body)
	}

	connDead := make(chan struct{})
	jobs := make(chan muxWork, 64)
	var execWG sync.WaitGroup
	execWG.Add(1)
	go func() {
		defer execWG.Done()
		// cache holds this connection's verified start states for delta-job
		// reconstruction; confined to this executor goroutine.
		cache := newStateCache()
		for wk := range jobs {
			select {
			case <-connDead:
				// The connection died with this job still queued; it will
				// never be answered, so release it instead of replaying.
				w.inflight.Done()
				continue
			default:
			}
			job := wk.job
			if wk.deltaJob != nil {
				resolved, fault, rerr := resolveDeltaJob(wk.sess, wk.deltaJob, cache)
				switch {
				case errors.Is(rerr, errNeedState):
					_ = write(wire.DistFrameMuxNeedState,
						wire.AppendMuxID(wk.sessID, wire.MarshalNeedState(wk.deltaJob.Index)))
					w.inflight.Done()
					continue
				case fault != nil:
					v := verdictToWire(int(wk.deltaJob.Index), epochResult{fault: fault}).Marshal()
					_ = write(wire.DistFrameMuxVerdict, wire.AppendMuxID(wk.sessID, v))
					w.inflight.Done()
					continue
				}
				job = resolved
			} else if job.Start != nil {
				// Full-state job: remember the start so later jobs on this
				// connection can arrive as delta chains against it.
				cache.put(job.Start)
			}
			verdict, reply := w.runJobMaybeChaotic(wk.sess, job, conn, connDead, cache)
			if reply {
				_ = write(wire.DistFrameMuxVerdict, wire.AppendMuxID(wk.sessID, verdict))
			}
			w.inflight.Done()
		}
	}()
	defer func() {
		close(connDead)
		close(jobs)
		execWG.Wait()
	}()

	sessions := make(map[uint64]Session)
	defer func() { w.sessions.Add(-int64(len(sessions))) }()
	frameSeq := 0
	handle := func(kind wire.DistFrameKind, body []byte) error {
		switch kind {
		case wire.DistFrameMuxSession:
			id, rest, err := wire.SplitMuxID(body)
			if err != nil {
				return err
			}
			ws, err := wire.ParseAuditSession(rest)
			if err != nil {
				return err
			}
			sess, err := sessionFromWire(ws)
			if err != nil {
				return err
			}
			if _, ok := sessions[id]; !ok {
				w.sessions.Add(1)
			}
			sessions[id] = sess
			return write(wire.DistFrameMuxSessionOK, wire.AppendMuxID(id, nil))
		case wire.DistFrameMuxSessionEnd:
			id, err := wire.ParseMuxSessionEnd(body)
			if err != nil {
				return err
			}
			if _, ok := sessions[id]; ok {
				delete(sessions, id)
				w.sessions.Add(-1)
			}
			return nil
		case wire.DistFrameMuxJob, wire.DistFrameMuxDeltaJob:
			id, rest, err := wire.SplitMuxID(body)
			if err != nil {
				return err
			}
			sess, ok := sessions[id]
			if !ok {
				return fmt.Errorf("audit: mux job for unregistered session %d", id)
			}
			if w.Draining() {
				return write(wire.DistFrameDrain, nil)
			}
			wk := muxWork{sessID: id, sess: sess}
			if kind == wire.DistFrameMuxDeltaJob {
				dj, err := wire.ParseAuditDeltaJob(rest)
				if err != nil {
					return err
				}
				wk.deltaJob = dj
			} else {
				wj, err := wire.ParseAuditJob(rest)
				if err != nil {
					return err
				}
				wk.job = jobFromWire(wj)
			}
			w.inflight.Add(1)
			jobs <- wk
			return nil
		case wire.DistFramePing:
			return write(wire.DistFramePong, body)
		}
		return fmt.Errorf("audit: worker got unexpected mux frame kind %d", kind)
	}

	if err := handle(firstKind, firstBody); err != nil {
		return err
	}
	idle := w.IdleTimeout
	if idle <= 0 {
		idle = 5 * time.Minute
	}
	for {
		conn.SetReadDeadline(time.Now().Add(idle))
		kind, body, err := readDistFrame(conn)
		if err != nil {
			return err
		}
		frameSeq++
		if w.Chaos != nil && !w.Chaos.admitFrame(frameSeq) {
			// Connection-flap plan: the link drops mid-conversation.
			return nil
		}
		if err := handle(kind, body); err != nil {
			return err
		}
	}
}

// runJobMaybeChaotic replays one job, letting the worker's chaos plan
// decide its fate first. It returns the encoded verdict and whether to
// reply at all (a hanging worker never does). The verdict is encoded here
// so a lying plan can corrupt it in one place for both protocols. connDead
// is the mux executor's teardown signal; it is nil on legacy connections,
// where this function runs on the read loop itself and a hang instead
// swallows the connection's remaining traffic until the peer gives up.
func (w *EpochWorker) runJobMaybeChaotic(sess Session, job *EpochJob, conn net.Conn, connDead <-chan struct{}, cache *stateCache) (verdict []byte, reply bool) {
	seq := w.jobSeq.Add(1)
	action := ChaosNone
	if w.Chaos != nil {
		action = w.Chaos.jobAction(seq)
	}
	switch action {
	case ChaosCrash:
		// Die mid-epoch: close the connection without a verdict.
		conn.Close()
		return nil, false
	case ChaosHang:
		// Accept the job and never reply; hold the slot until the
		// connection dies so the goroutine cannot leak past the test.
		if connDead != nil {
			<-connDead
		} else {
			_, _ = io.Copy(io.Discard, conn)
		}
		return nil, false
	}
	start := time.Now()
	r := runEpochJobEx(sess, job, nil, cache != nil)
	if cache != nil {
		// Cache the verified end state (nil for faulted or tail epochs):
		// the next contiguous job on this connection can then arrive as an
		// empty delta chain, shipping no state at all.
		cache.put(r.end)
	}
	if action == ChaosSlow {
		// A 10x-slower worker: the replay took 1x, so sleep out the other
		// 9x (capped) unless the connection dies first.
		delay := 9 * time.Since(start)
		if max := w.Chaos.slowCap(); delay > max {
			delay = max
		}
		if connDead == nil {
			time.Sleep(delay)
		} else {
			select {
			case <-time.After(delay):
			case <-connDead:
				return nil, false
			}
		}
	}
	if action == ChaosLie {
		r = w.Chaos.corrupt(r)
	}
	return verdictToWire(job.Index, r).Marshal(), true
}

// coordinator side ----------------------------------------------------------

// ErrRetriesExhausted reports an epoch that burned through its dispatch
// retry budget without a verdict. It surfaces in DistStats.RetriesExhausted
// and, when the epoch was needed for the merge, in the audit error.
var ErrRetriesExhausted = errors.New("audit: epoch dispatch retry budget exhausted")

// TCPBackend replays epochs on remote workers reached over TCP.
type TCPBackend struct {
	// Addrs are the worker addresses (host:port), one connection each.
	Addrs []string
	// DialTimeout bounds connection setup. <= 0 selects 5s.
	DialTimeout time.Duration
	// JobTimeout is the straggler deadline: an epoch with no verdict after
	// this long is re-dispatched to another worker (the original dispatch
	// stays outstanding; the first verdict wins). <= 0 selects 2m.
	JobTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per epoch across workers.
	// <= 0 selects len(Addrs)+2.
	MaxAttempts int
	// ConsecutiveTimeouts is how many straggler deadlines in a row a
	// connection survives before it is dropped and redialed. <= 0 selects 2.
	ConsecutiveTimeouts int
	// RetryBackoff is the base delay before a failed epoch re-dispatches;
	// each subsequent failure doubles it (with deterministic jitter) up to
	// RetryMaxBackoff. Straggler re-dispatches are exempt — they are hedges,
	// and delaying a hedge defeats it. <= 0 selects 25ms.
	RetryBackoff time.Duration
	// RetryMaxBackoff caps the exponential backoff. <= 0 selects 1s.
	RetryMaxBackoff time.Duration
	// BackoffSeed drives the deterministic backoff jitter.
	BackoffSeed uint64

	// deltaSrc, when set (via the dist router's deltaCapable seam), lets
	// each worker connection ship jobs as proof-carrying delta chains after
	// its first full-state frame.
	deltaSrc func(k uint32) (*snapshot.Delta, error)
}

// withDelta implements deltaCapable: the returned backend ships
// delta-encoded jobs where a connection's tracked base allows it.
func (b *TCPBackend) withDelta(src func(k uint32) (*snapshot.Delta, error)) EpochBackend {
	nb := *b
	nb.deltaSrc = src
	return &nb
}

// backoffDelay computes the capped exponential backoff (with deterministic
// jitter in [1/2, 1) of the exponential step) before attempt n+1 of pos.
func (b *TCPBackend) backoffDelay(pos, attempt int) time.Duration {
	base := b.RetryBackoff
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	ceil := b.RetryMaxBackoff
	if ceil <= 0 {
		ceil = time.Second
	}
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	frac := float64(splitmix64(b.BackoffSeed^uint64(pos)<<20^uint64(attempt))>>11) / float64(1<<53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// Remote implements EpochBackend: jobs ship whole.
func (b *TCPBackend) Remote() bool { return true }

// tcpDispatch is the shared state of one Run.
type tcpDispatch struct {
	jobs []*EpochJob

	// blocks partitions the initial positions into one contiguous range per
	// worker connection, so each connection replays consecutive epochs and a
	// delta-encoded job ships exactly one increment — not the chain of every
	// epoch other connections replayed in between. Workers drain their own
	// block front to back and steal the back half of the fullest remaining
	// block when theirs runs dry (the stolen half stays contiguous, so the
	// thief starts one new chain instead of paying a full state per stolen
	// job). Retries and stragglers flow through pending as before.
	blockMu sync.Mutex
	blocks  [][]int

	pending   chan int // positions awaiting re-dispatch; never closed (exit via done)
	settled   []atomic.Bool
	attempts  []atomic.Int32
	shipped   []atomic.Int64 // job-frame bytes written per position, all attempts
	shipFull  []atomic.Int64 // full-state job-frame bytes per position
	shipDelta []atomic.Int64 // delta-encoded job-frame bytes per position
	deltaSent []atomic.Int32 // delta-encoded dispatches per position
	deltaFall []atomic.Int32 // full re-ships after a worker NeedState
	remaining atomic.Int64
	done      chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	failed map[int]error // position → last error, for epochs out of attempts
	timers []*time.Timer // pending backoff requeues, stopped at shutdown
	closed bool
}

// settle marks a position finished (verdict, skip, or failure); the run
// completes when every position settles. Reports whether this call won.
func (d *tcpDispatch) settle(pos int) bool {
	if !d.settled[pos].CompareAndSwap(false, true) {
		return false
	}
	if d.remaining.Add(-1) == 0 {
		close(d.done)
	}
	return true
}

// fail records a position that exhausted its attempts.
func (d *tcpDispatch) fail(pos int, err error) {
	d.mu.Lock()
	d.failed[pos] = err
	d.mu.Unlock()
	d.settle(pos)
}

// nextBlocked pops the next initial-dispatch position for worker w: the
// front of w's own block, or — when w's block is empty — the back half of
// the fullest remaining block, adopted as w's new block. Returns false only
// when every block is drained.
func (d *tcpDispatch) nextBlocked(w int) (int, bool) {
	d.blockMu.Lock()
	defer d.blockMu.Unlock()
	if w < 0 || w >= len(d.blocks) {
		return 0, false
	}
	if len(d.blocks[w]) == 0 {
		best, bestLen := -1, 0
		for i := range d.blocks {
			if n := len(d.blocks[i]); n > bestLen {
				best, bestLen = i, n
			}
		}
		if best < 0 {
			return 0, false
		}
		cut := bestLen / 2
		d.blocks[w] = append([]int(nil), d.blocks[best][cut:]...)
		d.blocks[best] = d.blocks[best][:cut]
	}
	pos := d.blocks[w][0]
	d.blocks[w] = d.blocks[w][1:]
	return pos, true
}

// flushBlock returns a departing worker's unclaimed block to the shared
// queue so still-live connections pick its positions up; without it a
// worker parked on pending could wait forever for epochs only the dead
// worker's block held.
func (d *tcpDispatch) flushBlock(w int) {
	d.blockMu.Lock()
	var rest []int
	if w >= 0 && w < len(d.blocks) {
		rest, d.blocks[w] = d.blocks[w], nil
	}
	d.blockMu.Unlock()
	for _, pos := range rest {
		d.requeue(pos)
	}
}

// requeue returns a position to the dispatch queue. The queue is sized for
// every position times every attempt plus slack, so the send never blocks.
func (d *tcpDispatch) requeue(pos int) {
	if !d.settled[pos].Load() {
		select {
		case d.pending <- pos:
		default:
			// Queue saturated by duplicate requeues; the position is
			// already waiting, dropping this copy loses nothing.
		}
	}
}

// requeueAfter schedules a requeue once the backoff delay elapses; the
// timer is tracked so shutdown can cancel it.
func (d *tcpDispatch) requeueAfter(pos int, delay time.Duration) {
	if d.settled[pos].Load() {
		return
	}
	if delay <= 0 {
		d.requeue(pos)
		return
	}
	t := time.AfterFunc(delay, func() { d.requeue(pos) })
	d.mu.Lock()
	if d.closed {
		t.Stop()
	} else {
		d.timers = append(d.timers, t)
	}
	d.mu.Unlock()
}

// register tracks a live connection so shutdown can unblock its reads;
// returns false when the run is already over.
func (d *tcpDispatch) register(c net.Conn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.conns[c] = struct{}{}
	return true
}

func (d *tcpDispatch) unregister(c net.Conn) {
	d.mu.Lock()
	delete(d.conns, c)
	d.mu.Unlock()
}

// shutdown closes every live connection, unblocking worker reads, and
// cancels pending backoff timers.
func (d *tcpDispatch) shutdown() {
	d.mu.Lock()
	d.closed = true
	for c := range d.conns {
		c.Close()
	}
	d.conns = map[net.Conn]struct{}{}
	for _, t := range d.timers {
		t.Stop()
	}
	d.timers = nil
	d.mu.Unlock()
}

func (d *tcpDispatch) finished() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// costBlocks slices positions 0..len(jobs)-1 into one contiguous block per
// worker, weighted by each job's estimated replay cost: a worker's block
// covers roughly total/workers instructions, not len(jobs)/workers epochs,
// so a recording whose snapshot cadence produced one hot epoch does not
// serialize the fleet behind it. Blocks stay contiguous to preserve delta
// chain affinity. Jobs with no cost estimate (Cost 0 everywhere) fall back
// to the equal epoch-count split.
func costBlocks(jobs []*EpochJob, workers int) [][]int {
	blocks := make([][]int, workers)
	var total uint64
	for _, j := range jobs {
		total += j.Cost
	}
	if total == 0 {
		for i := range blocks {
			lo, hi := i*len(jobs)/workers, (i+1)*len(jobs)/workers
			for pos := lo; pos < hi; pos++ {
				blocks[i] = append(blocks[i], pos)
			}
		}
		return blocks
	}
	w := 0
	var cum uint64
	for pos, j := range jobs {
		// Assign by the job's cost midpoint: a job spanning a boundary goes
		// to whichever side holds more of it.
		mid := cum + j.Cost/2
		for w+1 < workers && mid >= uint64(w+1)*total/uint64(workers) {
			w++
		}
		blocks[w] = append(blocks[w], pos)
		cum += j.Cost
	}
	return blocks
}

// Run implements EpochBackend over the worker fleet.
func (b *TCPBackend) Run(sess Session, jobs []*EpochJob, skip func(int) bool, emit func(EpochVerdict)) error {
	if len(b.Addrs) == 0 {
		return errors.New("audit: TCP backend has no worker addresses")
	}
	maxAttempts := b.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = len(b.Addrs) + 2
	}
	d := &tcpDispatch{
		jobs:      jobs,
		pending:   make(chan int, len(jobs)*(maxAttempts+2)+len(b.Addrs)),
		settled:   make([]atomic.Bool, len(jobs)),
		attempts:  make([]atomic.Int32, len(jobs)),
		shipped:   make([]atomic.Int64, len(jobs)),
		shipFull:  make([]atomic.Int64, len(jobs)),
		shipDelta: make([]atomic.Int64, len(jobs)),
		deltaSent: make([]atomic.Int32, len(jobs)),
		deltaFall: make([]atomic.Int32, len(jobs)),
		done:      make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		failed:    make(map[int]error),
	}
	d.remaining.Store(int64(len(jobs)))
	d.blocks = costBlocks(jobs, len(b.Addrs))

	// Jobs are encoded lazily and cached, so skipped epochs cost nothing
	// and a re-dispatch reuses the first attempt's bytes.
	encoded := make([][]byte, len(jobs))
	var encMu sync.Mutex
	frame := func(pos int) []byte {
		encMu.Lock()
		defer encMu.Unlock()
		if encoded[pos] == nil {
			encoded[pos] = jobToWire(jobs[pos]).Marshal()
		}
		return encoded[pos]
	}

	sessionFrame := sessionToWire(sess).Marshal()
	var wg sync.WaitGroup
	var live atomic.Int64
	allDead := make(chan struct{})
	live.Store(int64(len(b.Addrs)))
	for i, addr := range b.Addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			b.runWorker(i, addr, sessionFrame, d, frame, skip, emit)
			if live.Add(-1) == 0 {
				close(allDead)
			}
		}(i, addr)
	}

	var runErr error
	select {
	case <-d.done:
	case <-allDead:
		if d.remaining.Load() > 0 {
			runErr = fmt.Errorf("audit: all %d TCP workers unreachable with %d epochs unresolved",
				len(b.Addrs), d.remaining.Load())
		}
	}
	d.shutdown()
	wg.Wait()

	// Report per-epoch failures as errored verdicts; the router decides
	// whether the final verdict needed them.
	d.mu.Lock()
	for pos, err := range d.failed {
		emit(EpochVerdict{Index: jobs[pos].Index, Err: err,
			Attempts: int(d.attempts[pos].Load()), Worker: "(exhausted)"})
	}
	d.mu.Unlock()
	return runErr
}

// runWorker drives one worker connection until the run completes or the
// worker is abandoned. Returning requeues nothing by itself — any position
// this worker held was requeued on its error path — so the job flows to
// the surviving workers.
func (b *TCPBackend) runWorker(widx int, addr string, sessionFrame []byte, d *tcpDispatch, frame func(int) []byte, skip func(int) bool, emit func(EpochVerdict)) {
	dialTimeout := b.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	jobTimeout := b.JobTimeout
	if jobTimeout <= 0 {
		jobTimeout = 2 * time.Minute
	}
	maxConsecutiveTimeouts := b.ConsecutiveTimeouts
	if maxConsecutiveTimeouts <= 0 {
		maxConsecutiveTimeouts = 2
	}

	posByIndex := make(map[int]int, len(d.jobs))
	for pos, j := range d.jobs {
		posByIndex[j.Index] = pos
	}

	// tracker models what snapshot state the worker on the current
	// connection holds; a reconnect resets it (the worker's state cache is
	// per-connection).
	tracker := &deltaTracker{src: b.deltaSrc}

	defer d.flushBlock(widx)

	var conn net.Conn
	closeConn := func() {
		if conn != nil {
			d.unregister(conn)
			conn.Close()
			conn = nil
		}
	}
	defer closeConn()
	connect := func() bool {
		tracker.invalidate()
		closeConn()
		if d.finished() {
			return false
		}
		c, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			return false
		}
		// Register before the first write: once the conn is registered,
		// shutdown() can always unblock this goroutine's I/O, so a worker
		// that stalls mid-handshake cannot outlive the run.
		if !d.register(c) {
			c.Close()
			return false
		}
		c.SetWriteDeadline(time.Now().Add(dialTimeout))
		if err := writeDistFrame(c, wire.DistFrameSession, sessionFrame); err != nil {
			d.unregister(c)
			c.Close()
			return false
		}
		c.SetReadDeadline(time.Now().Add(dialTimeout))
		kind, _, err := readDistFrame(c)
		if err != nil || kind != wire.DistFrameSessionOK {
			d.unregister(c)
			c.Close()
			return false
		}
		conn = c
		return true
	}
	if !connect() {
		return
	}

	// deliver hands a verdict frame to the router, deduplicating via the
	// settled flags so a straggler's late verdict and its re-dispatch twin
	// emit exactly once. Returns the settled position, or -1 on a frame
	// this run cannot place. Shipped bytes are read from the per-position
	// tally, so a late verdict drained while awaiting another job is
	// charged its own epoch's frames (every attempt's), not the current
	// job's.
	deliver := func(body []byte) int {
		v, err := wire.ParseAuditVerdict(body)
		if err != nil {
			return -1
		}
		pos, ok := posByIndex[int(v.Index)]
		if !ok {
			return -1
		}
		// A fault-free verdict proves this connection's worker replayed
		// through the epoch's terminal snapshot and cached the verified end
		// state; advance the tracked base so the next contiguous job ships
		// stateless.
		if !v.HasFault {
			tracker.noteEnd(d.jobs[pos])
		}
		if d.settle(pos) {
			r := verdictFromWire(v)
			emit(EpochVerdict{
				Index: int(v.Index), Stats: r.stats, Fault: r.fault,
				Worker: addr, Attempts: int(d.attempts[pos].Load()),
				WireBytes:      int(d.shipped[pos].Load()) + len(body),
				WireBytesFull:  int(d.shipFull[pos].Load()),
				WireBytesDelta: int(d.shipDelta[pos].Load()),
				DeltaShipped:   int(d.deltaSent[pos].Load()),
				DeltaFallbacks: int(d.deltaFall[pos].Load()),
			})
		}
		return pos
	}

	consecutiveTimeouts := 0
	for {
		if d.finished() {
			return
		}
		var pos int
		var ok bool
		if pos, ok = d.nextBlocked(widx); !ok {
			select {
			case <-d.done:
				return
			case pos, ok = <-d.pending:
				if !ok {
					return
				}
			}
		}
		if d.settled[pos].Load() {
			continue
		}
		if skip(d.jobs[pos].Index) {
			d.settle(pos)
			continue
		}
		if n := d.attempts[pos].Add(1); int(n) > maxAttemptsOf(b, len(b.Addrs)) {
			d.fail(pos, fmt.Errorf("audit: epoch %d exhausted %d dispatch attempts: %w",
				d.jobs[pos].Index, maxAttemptsOf(b, len(b.Addrs)), ErrRetriesExhausted))
			continue
		}
		// Prefer a delta-encoded frame when the worker's tracked state
		// allows it; otherwise ship (and record) the cached full frame.
		kind := wire.DistFrameJob
		var body []byte
		if b.deltaSrc != nil {
			if df, derr := tracker.deltaFrame(d.jobs[pos]); derr == nil {
				kind, body = wire.DistFrameDeltaJob, df
			}
		}
		if body == nil {
			body = frame(pos)
		}
		// A write deadline keeps a wedged worker from pinning this epoch
		// forever: job frames carry whole materialized states, so a stalled
		// receiver can block a large write that the read deadline below
		// would never reach.
		conn.SetWriteDeadline(time.Now().Add(jobTimeout))
		if err := writeDistFrame(conn, kind, body); err != nil {
			d.requeueAfter(pos, b.backoffDelay(pos, int(d.attempts[pos].Load())))
			if !connect() {
				return
			}
			continue
		}
		d.shipped[pos].Add(int64(len(body)))
		if kind == wire.DistFrameDeltaJob {
			d.shipDelta[pos].Add(int64(len(body)))
			d.deltaSent[pos].Add(1)
		} else {
			d.shipFull[pos].Add(int64(len(body)))
			tracker.noteFull(d.jobs[pos])
		}
		// Await this job's verdict, tolerating late verdicts for earlier
		// jobs this connection timed out on.
		for {
			conn.SetReadDeadline(time.Now().Add(jobTimeout))
			kind, body, err := readDistFrame(conn)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					// Straggler: hand the epoch to another worker and move
					// on; if the verdict still lands here later, the next
					// await drains and delivers it.
					d.requeue(pos)
					consecutiveTimeouts++
					if consecutiveTimeouts >= maxConsecutiveTimeouts {
						if !connect() {
							return
						}
						consecutiveTimeouts = 0
					}
					break
				}
				d.requeueAfter(pos, b.backoffDelay(pos, int(d.attempts[pos].Load())))
				if !connect() {
					return
				}
				break
			}
			if kind == wire.DistFrameNeedState {
				// The worker evicted the delta base: fall back to the full
				// frame for this epoch on the same connection and keep
				// awaiting the verdict.
				if idx, perr := wire.ParseNeedState(body); perr == nil && int(idx) == d.jobs[pos].Index {
					tracker.invalidate()
					full := frame(pos)
					conn.SetWriteDeadline(time.Now().Add(jobTimeout))
					if werr := writeDistFrame(conn, wire.DistFrameJob, full); werr != nil {
						d.requeueAfter(pos, b.backoffDelay(pos, int(d.attempts[pos].Load())))
						if !connect() {
							return
						}
						break
					}
					d.shipped[pos].Add(int64(len(full)))
					d.shipFull[pos].Add(int64(len(full)))
					d.deltaFall[pos].Add(1)
					tracker.noteFull(d.jobs[pos])
					continue
				}
				// A need-state for some other epoch is a protocol violation
				// on this synchronous connection; fall through to requeue.
			}
			if kind != wire.DistFrameVerdict {
				// Worker-side protocol error, drain refusal, or garbage:
				// this connection is not going to produce the verdict.
				d.requeueAfter(pos, b.backoffDelay(pos, int(d.attempts[pos].Load())))
				if !connect() {
					return
				}
				break
			}
			consecutiveTimeouts = 0
			got := deliver(body)
			if got < 0 {
				d.requeueAfter(pos, b.backoffDelay(pos, int(d.attempts[pos].Load())))
				if !connect() {
					return
				}
				break
			}
			if got == pos {
				break
			}
			// A late verdict for an earlier job; keep reading for ours.
		}
	}
}

// maxAttemptsOf resolves the per-epoch attempt bound.
func maxAttemptsOf(b *TCPBackend, workers int) int {
	if b.MaxAttempts > 0 {
		return b.MaxAttempts
	}
	return workers + 2
}
