package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// Input sizes. Recording with real RSA costs about 0.17 host seconds per
// virtual second of a 3-player match and about 0.4 for minisql, and every
// run sets up five times, so recordings stay short; the timed phases
// repeat their operation many times instead.
const (
	recordVsec    = 6  // record-match: virtual seconds per recorded match
	layerVsec     = 11 // record-match's traced run profiles a longer match: two snapshots
	auditVsec     = 12 // audit-match: virtual seconds of the audited match
	spotVsec      = 6  // spot-db: virtual seconds of the minisql recording
	fleetVsec     = 8  // fleet-match: virtual seconds of the dispatched match
	matchSnapNs   = 5 * nsPerSec
	spotSnapNs    = nsPerSec / 2
	fleetSnapNs   = 1 * nsPerSec
	layerNode     = "player1" // node the game workloads' traced run profiles
	fleetInFlight = 2         // concurrent coordinator audits on fleet-match
)

// ---------------------------------------------------------------- record-match

func runRecordMatch(e *env) (*result, error) {
	res := &result{}
	cfg := matchConfig(e.seed, matchSnapNs, nil)
	d, err := repeatSetup(e, res, func() (*dataset, error) {
		return recordMatch(cfg, recordVsec, filepath.Join(e.work, "reference"))
	})
	if err != nil {
		return nil, err
	}
	arcDir := filepath.Join(e.work, "recorded")
	var archived int64
	op := func(_, i int, tr *tracer) (sample, error) {
		s, err := game.NewScenario(cfg)
		if err != nil {
			return sample{}, err
		}
		if tr != nil {
			wrapKeys(s.Keys, s.Keys, &tr.count, tr.rec)
		}
		mons := append([]*avmm.Monitor{s.Server}, s.Players...)
		if err := os.RemoveAll(arcDir); err != nil {
			return sample{}, err
		}
		w := startWatch()
		s.Run(uint64(recordVsec * nsPerSec))
		size, err := archiveMonitors(arcDir, mons)
		done := w.sample(recordVsec, false)
		if err != nil {
			return sample{}, err
		}
		archived = size
		if err := checkRecording(d, s, mons, arcDir, i); err != nil {
			return sample{}, err
		}
		return done, nil
	}
	if e.trace {
		// Delta folds need two snapshots, which a recordVsec match lacks.
		long, err := recordMatch(cfg, layerVsec, filepath.Join(e.work, "layers"))
		if err != nil {
			return nil, err
		}
		return res, traceRun(e, res, long, long.node(layerNode), op, nil)
	}
	ph := closedLoop(1, e.seconds, op, res)
	vsec, ms, cpuMs, n := sums(ph.samples, false)
	endToEnd(res, cpuMs, n)
	res.detail("record_vsec_per_s", "vsec/s", vsec/(ms/1000), fmt.Sprintf("%d matches of %d virtual s", n, recordVsec))
	res.detail("archive_bytes_per_vsec", "B/vsec", float64(archived)/recordVsec, "")
	latencyDetails(res, "record_match_ms", latencies(ph.samples, false))
	return res, nil
}

// checkRecording checks a fresh recording of the reference match: every
// node's log has the reference's length and size, the archive reads back
// with the same chain head, and node i mod n audits to the oracle's
// verdict.
func checkRecording(d *dataset, s *game.Scenario, mons []*avmm.Monitor, arcDir string, i int) error {
	arc, err := archive.Open(arcDir)
	if err != nil {
		return err
	}
	defer arc.Close()
	for _, m := range mons {
		nd := d.node(m.Node())
		if m.Log.Len() != len(nd.entries) || m.TotalLogBytes() != nd.logBytes {
			return fmt.Errorf("record: %s logged %d entries / %d bytes, reference %d / %d",
				m.Node(), m.Log.Len(), m.TotalLogBytes(), len(nd.entries), nd.logBytes)
		}
		back, err := arc.ReadLog(string(m.Node()))
		if err != nil {
			return fmt.Errorf("record: reading back %s: %w", m.Node(), err)
		}
		if len(back) != m.Log.Len() || back[len(back)-1].Hash != m.Log.LastHash() {
			return fmt.Errorf("record: archived %s log differs from the recorded one", m.Node())
		}
	}
	m := mons[i%len(mons)]
	nd := d.node(m.Node())
	auths, err := matchAuths(s, m)
	if err != nil {
		return err
	}
	got, _, err := nd.auditor(s.Keys).Audit(audit.AuditRequest{
		Node: nd.id, NodeIdx: nd.idx, Engine: audit.EngineSerial, Entries: m.Log.All(), Auths: auths,
	})
	return nd.want.check(got, err)
}

// ---------------------------------------------------------------- audit-match

// auditArchived audits one node straight from the archive in dir on the
// stream engine, opening the archive fresh.
func auditArchived(dir string, nd *nodeData, ks *sig.KeyStore, workers int) (*audit.Result, audit.StreamStats, error) {
	arc, err := archive.Open(dir)
	if err != nil {
		return nil, audit.StreamStats{}, err
	}
	defer arc.Close()
	src, err := arc.EntrySource(string(nd.id))
	if err != nil {
		return nil, audit.StreamStats{}, err
	}
	incs, err := arc.IncrementSource(string(nd.id))
	if err != nil {
		return nil, audit.StreamStats{}, err
	}
	res, stats, err := nd.auditor(ks).Audit(audit.AuditRequest{
		Node: nd.id, NodeIdx: nd.idx, Engine: audit.EngineStream, Source: src, Auths: nd.auths,
		Options: audit.EngineOptions{
			Workers:     workers,
			Materialize: func(k uint32) (*snapshot.Restored, error) { return snapshot.MaterializeFrom(incs, int(k)) },
		},
	})
	return res, stats.Stream, err
}

func runAuditMatch(e *env) (*result, error) {
	res := &result{}
	cheat := cheatFor(e.seed)
	arcDir := filepath.Join(e.work, "match")
	d, err := repeatSetup(e, res, func() (*dataset, error) {
		return recordMatch(matchConfig(e.seed, matchSnapNs, cheat), auditVsec, arcDir)
	})
	if err != nil {
		return nil, err
	}
	op := func(_, i int, tr *tracer) (sample, error) {
		nd := d.nodes[i%len(d.nodes)]
		w := startWatch()
		got, _, err := auditArchived(arcDir, nd, tr.keys(d.keys), e.workers)
		done := w.sample(float64(len(nd.entries)), nd.cheater)
		if err := nd.want.check(got, err); err != nil {
			return sample{}, err
		}
		return done, nil
	}
	if e.trace {
		return res, traceRun(e, res, d, d.node(layerNode), op, nil)
	}
	ph := closedLoop(1, e.seconds, op, res)
	// The gated CPU cost covers every audit, the cheater's early FAULTs
	// too; the throughput counts honest audits, which replay their whole
	// log.
	entries, ms, cpuMs, n := sums(ph.samples, false)
	_, _, faultCPUMs, nFault := sums(ph.samples, true)
	endToEnd(res, cpuMs+faultCPUMs, n+nFault)
	res.detail("audit_entries_per_s", "entries/s", entries/(ms/1000), "honest nodes")
	latencyDetails(res, "audit_ms", latencies(ph.samples, false))
	faults := latencies(ph.samples, true)
	res.detail("fault_ms_p50", "ms", median(faults), fmt.Sprintf("median of %d audits of %s running %s", len(faults), "player2", cheat.Name))
	return res, nil
}

// ---------------------------------------------------------------- spot-db

// spotInputs is the minisql recording plus each segment's expected chunk
// verdict.
type spotInputs struct {
	d    *dataset
	want []verdict // want[k]: the chunk after snapshot point k
}

// chunkOracle computes every single-segment chunk verdict from the
// in-memory log and snapshot store — a source independent of the archive
// the timed spot checks read.
func chunkOracle(d *dataset) ([]verdict, error) {
	nd := d.nodes[0]
	points, err := audit.FindSnapshots(nd.entries)
	if err != nil {
		return nil, err
	}
	store := nd.snaps.Restore()
	var want []verdict
	for k, p := range points {
		end := len(nd.entries)
		if k+1 < len(points) {
			end = points[k+1].EntryIndex + 1
		}
		if p.EntryIndex+1 >= end {
			break // the log ends at this snapshot: no segment follows
		}
		start, err := store.Materialize(int(p.SnapIdx))
		if err != nil {
			return nil, err
		}
		req := audit.ChunkRequest{
			Node: nd.id, NodeIdx: nd.idx, Start: start, StartRoot: p.Root, PrevHash: p.EntryHash,
			Entries: nd.entries[p.EntryIndex+1 : end], Auths: nd.auths,
		}
		got, _, err := nd.auditor(d.keys).Audit(audit.AuditRequest{Node: nd.id, NodeIdx: nd.idx, Engine: audit.EngineChunk, Chunk: &req})
		if err != nil {
			return nil, err
		}
		v, err := oracle(got, false)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", k, err)
		}
		want = append(want, v)
	}
	if len(want) < 2 {
		return nil, fmt.Errorf("spot-db: only %d segments to spot-check", len(want))
	}
	return want, nil
}

// mix64 is splitmix64's finalizer: a seeded, order-independent choice.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func runSpotDB(e *env) (*result, error) {
	res := &result{}
	arcDir := filepath.Join(e.work, "minisql")
	in, err := repeatSetup(e, res, func() (*spotInputs, error) {
		d, err := recordDB(e.seed, spotVsec, spotSnapNs, arcDir)
		if err != nil {
			return nil, err
		}
		want, err := chunkOracle(d)
		return &spotInputs{d: d, want: want}, err
	})
	if err != nil {
		return nil, err
	}
	d, nd := in.d, in.d.nodes[0]
	arc, err := archive.Open(arcDir)
	if err != nil {
		return nil, err
	}
	defer arc.Close()
	op := func(_, i int, tr *tracer) (sample, error) {
		k := int(mix64(e.seed<<20^uint64(i)) % uint64(len(in.want)))
		// A fresh source per check: each spot check fetches and
		// materializes its starting state, as a first visit would.
		src := &audit.ArchiveSource{Arc: arc, Node: nd.id, NodeIdx: nd.idx, Auths: nd.auths}
		w := startWatch()
		req, err := src.Chunk(k, 1)
		if err != nil {
			return sample{}, err
		}
		got, _, err := nd.auditor(tr.keys(d.keys)).Audit(audit.AuditRequest{Node: nd.id, NodeIdx: nd.idx, Engine: audit.EngineChunk, Chunk: &req})
		done := w.sample(1, false)
		if err := in.want[k].check(got, err); err != nil {
			return sample{}, fmt.Errorf("spot check of segment %d: %w", k, err)
		}
		return done, nil
	}
	if e.trace {
		return res, traceRun(e, res, d, nd, op, nil)
	}
	ph := closedLoop(1, e.seconds, op, res)
	checks, ms, cpuMs, n := sums(ph.samples, false)
	endToEnd(res, cpuMs, n)
	res.detail("spot_checks_per_s", "1/s", checks/(ms/1000), fmt.Sprintf("%d segments of %s", len(in.want), nd.id))
	latencyDetails(res, "spot_ms", latencies(ph.samples, false))
	return res, nil
}

// ---------------------------------------------------------------- fleet-match

// fleet is an in-process coordinator with loopback epoch workers.
type fleet struct {
	coord     *audit.Coordinator
	listeners []net.Listener
	serving   sync.WaitGroup // one per worker's accept loop
	workers   int
}

// startFleet starts n loopback epoch workers behind one coordinator with
// local fallback disabled, and waits until every worker is connected.
func startFleet(n int) (*fleet, error) {
	f := &fleet{workers: n, coord: audit.NewCoordinator(audit.CoordinatorConfig{
		JobTimeout: 2 * time.Minute, DisableLocalFallback: true,
	})}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.listeners = append(f.listeners, l)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = audit.ServeEpochWorker(l) // returns the accept error once stop closes l
		}()
		f.coord.AddWorker(l.Addr().String())
	}
	for deadline := time.Now().Add(10 * time.Second); f.coord.Stats().WorkersLive < n; {
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet: only %d of %d workers connected", f.coord.Stats().WorkersLive, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return f, nil
}

// stop closes the coordinator, which closes its worker connections, then
// the workers' listeners, and waits for the workers' accept loops to end.
func (f *fleet) stop() {
	f.coord.Close()
	for _, l := range f.listeners {
		l.Close()
	}
	f.serving.Wait()
}

// fleetNode is one node's inputs for a coordinator audit, read back from
// the archive as an auditor would.
type fleetNode struct {
	nd          *nodeData
	entries     []tevlog.Entry
	materialize func(uint32) (*snapshot.Restored, error)
	deltas      func(uint32) (*snapshot.Delta, error)
}

// loadFleetNodes reads every node's log and snapshot sources back from
// the archive.
func loadFleetNodes(d *dataset, arc *archive.Archive) ([]*fleetNode, error) {
	var out []*fleetNode
	for _, nd := range d.nodes {
		entries, err := arc.ReadLog(string(nd.id))
		if err != nil {
			return nil, err
		}
		incs, err := arc.IncrementSource(string(nd.id))
		if err != nil {
			return nil, err
		}
		out = append(out, &fleetNode{
			nd: nd, entries: entries,
			materialize: func(k uint32) (*snapshot.Restored, error) { return snapshot.MaterializeFrom(incs, int(k)) },
			deltas:      func(k uint32) (*snapshot.Delta, error) { return snapshot.DeltaFrom(incs, int(k)) },
		})
	}
	return out, nil
}

// audit audits one node through the coordinator with delta-shipped
// jobs.
func (f *fleet) audit(fn *fleetNode, ks *sig.KeyStore) (*audit.Result, audit.DistStats, error) {
	return f.coord.Audit(fn.nd.auditor(ks), fn.nd.id, fn.nd.idx, fn.entries, fn.nd.auths,
		audit.DistOptions{EngineOptions: audit.EngineOptions{
			Materialize: fn.materialize, DeltaSource: fn.deltas, DeltaJobs: true,
		}})
}

func runFleetMatch(e *env) (*result, error) {
	res := &result{}
	arcDir := filepath.Join(e.work, "match")
	type inputs struct {
		d     *dataset
		arc   *archive.Archive
		nodes []*fleetNode
	}
	var prev *inputs
	in, err := repeatSetup(e, res, func() (*inputs, error) {
		if prev != nil {
			prev.arc.Close()
			prev = nil
		}
		d, err := recordMatch(matchConfig(e.seed, fleetSnapNs, nil), fleetVsec, arcDir)
		if err != nil {
			return nil, err
		}
		arc, err := archive.Open(arcDir)
		if err != nil {
			return nil, err
		}
		nodes, err := loadFleetNodes(d, arc)
		if err != nil {
			arc.Close()
			return nil, err
		}
		prev = &inputs{d: d, arc: arc, nodes: nodes}
		return prev, nil
	})
	if err != nil {
		return nil, err
	}
	defer in.arc.Close()
	workers := min(e.workers, fleetInFlight)
	f, err := startFleet(workers)
	if err != nil {
		return nil, err
	}
	defer f.stop()

	op := func(client, i int, tr *tracer) (sample, error) {
		fn := in.nodes[(client+i*fleetInFlight)%len(in.nodes)]
		w := startWatch()
		got, ds, err := f.audit(fn, tr.keys(in.d.keys))
		done := w.sample(float64(ds.Epochs), false)
		if err := fn.nd.want.check(got, err); err != nil {
			return sample{}, err
		}
		return done, nil
	}
	if e.trace {
		return res, traceRun(e, res, in.d, in.d.node(layerNode), op, f)
	}
	// Audits overlap, so each one's CPU interval includes the other's work:
	// the phase's CPU time is divided among them instead.
	ph := closedLoop(fleetInFlight, e.seconds, op, res)
	epochs, _, _, n := sums(ph.samples, false)
	endToEnd(res, float64(ph.cpu.Nanoseconds())/1e6, n)
	res.detail("fleet_epochs_per_s", "epochs/s", epochs/ph.wall.Seconds(), fmt.Sprintf("%d workers, %d audits in flight", workers, fleetInFlight))
	latencyDetails(res, "fleet_audit_ms", latencies(ph.samples, false))
	return res, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
