package main

import (
	"fmt"
	"os"

	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/dbapp"
	"repro/internal/game"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

const nsPerSec = 1_000_000_000

// nodeData is one recorded machine: its in-memory log and snapshots as
// the recorder left them, what an auditor needs to check it, and the
// oracle's verdict.
type nodeData struct {
	id      sig.NodeID
	idx     uint32
	ref     *vm.Image
	rngSeed uint64
	entries []tevlog.Entry
	auths   []tevlog.Authenticator
	snaps   *snapshot.StoreFile // nil when the node took no snapshots
	cheater bool
	want    verdict
	// logBytes is the recorder's wire-format log size.
	logBytes int
}

// auditor returns an auditor for the node that checks signatures against
// ks.
func (n *nodeData) auditor(ks *sig.KeyStore) *audit.Auditor {
	return &audit.Auditor{
		Keys: ks, RefImage: n.ref, RNGSeed: n.rngSeed,
		TamperEvident: true, VerifySignatures: true,
	}
}

// dataset is one recording with real RSA-1024 signatures, archived to
// disk, with every node's verdict computed by the oracle.
type dataset struct {
	vsec    float64
	nodes   []*nodeData
	keys    *sig.KeyStore // the deployment's public keys, unwrapped
	keySeed string
	arcDir  string
	// signs counts authenticators the recording issued: every signature
	// the machines made.
	signs int
}

func (d *dataset) entries() (n int) {
	for _, nd := range d.nodes {
		n += len(nd.entries)
	}
	return n
}

func (d *dataset) logBytes() (n int) {
	for _, nd := range d.nodes {
		n += nd.logBytes
	}
	return n
}

// node returns the named node.
func (d *dataset) node(id sig.NodeID) *nodeData {
	for _, nd := range d.nodes {
		if nd.id == id {
			return nd
		}
	}
	return nil
}

// matchConfig is the fragfest match every game workload records: three
// players and a server under AVMM-RSA with real signatures.
func matchConfig(seed uint64, snapEveryNs uint64, cheat *game.Cheat) game.ScenarioConfig {
	cfg := game.ScenarioConfig{
		Players: 3, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: seed, SnapshotEveryNs: snapEveryNs, FakeSignatures: false,
	}
	if cheat != nil {
		cfg.CheatPlayer, cfg.Cheat = 2, cheat
	}
	return cfg
}

// cheatFor picks the catalog cheat a seed installs.
func cheatFor(seed uint64) *game.Cheat {
	cat := game.Catalog()
	return cat[seed%uint64(len(cat))]
}

// archiveMonitors writes each monitor's recording to an archive in dir,
// syncing after each node, and returns the archive's size in bytes.
func archiveMonitors(dir string, mons []*avmm.Monitor) (int64, error) {
	arc, err := archive.Open(dir)
	if err != nil {
		return 0, err
	}
	for _, mon := range mons {
		var sf *snapshot.StoreFile
		if mon.Snaps != nil && mon.Snaps.Count() > 0 {
			f := mon.Snaps.File()
			sf = &f
		}
		if err := arc.WriteRecording(string(mon.Node()), mon.Log.All(), sf); err != nil {
			arc.Close()
			return 0, err
		}
		if err := arc.Sync(); err != nil {
			arc.Close()
			return 0, err
		}
	}
	size := arc.Bytes()
	return size, arc.Close()
}

// issuedSigns counts the authenticators a set of monitors issued: those
// their peers hold plus each machine's snapshot commitments.
func issuedSigns(mons []*avmm.Monitor) int {
	n := 0
	for _, m := range mons {
		n += len(m.SnapshotAuths())
		for _, peer := range mons {
			if peer != m {
				n += len(peer.AuthenticatorsFor(m.Node()))
			}
		}
	}
	return n
}

// recordMatch records a match of vsec virtual seconds, archives every node
// to arcDir and computes each node's oracle verdict with the serial
// engine on the in-memory log.
func recordMatch(cfg game.ScenarioConfig, vsec float64, arcDir string) (*dataset, error) {
	s, err := game.NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	s.Run(uint64(vsec * nsPerSec))
	mons := append([]*avmm.Monitor{s.Server}, s.Players...)
	d := &dataset{vsec: vsec, keys: s.Keys, keySeed: "fragfest", arcDir: arcDir, signs: issuedSigns(mons)}
	for _, m := range mons {
		auths, err := matchAuths(s, m)
		if err != nil {
			return nil, err
		}
		nd := &nodeData{
			id: m.Node(), idx: uint32(m.Index()), ref: s.RefImgs[m.Node()],
			rngSeed: s.RNGSeedOf(m.Index()), entries: m.Log.All(), auths: auths,
			cheater: cfg.Cheat != nil && m.Index() == cfg.CheatPlayer, logBytes: m.TotalLogBytes(),
		}
		if m.Snaps.Count() > 0 {
			f := m.Snaps.File()
			nd.snaps = &f
		}
		d.nodes = append(d.nodes, nd)
	}
	if err := os.RemoveAll(arcDir); err != nil {
		return nil, err
	}
	if _, err := archiveMonitors(arcDir, mons); err != nil {
		return nil, err
	}
	return d, d.computeOracle()
}

// matchAuths collects every authenticator the match's machines hold for
// m plus m's own snapshot and head commitments, so that every segment a
// spot check may pick ends at a signed entry.
func matchAuths(s *game.Scenario, m *avmm.Monitor) ([]tevlog.Authenticator, error) {
	auths, err := s.CollectAuths(m.Node())
	if err != nil {
		return nil, err
	}
	return append(auths, m.SnapshotAuths()...), nil
}

// recordDB records the minisql deployment for vsec virtual seconds with
// server snapshots every snapEveryNs and archives the server's log; only
// the server is audited.
func recordDB(seed uint64, vsec float64, snapEveryNs uint64, arcDir string) (*dataset, error) {
	s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(), Seed: seed,
		SnapshotEveryNs: snapEveryNs, FakeSignatures: false,
	})
	if err != nil {
		return nil, err
	}
	s.Run(uint64(vsec * nsPerSec))
	auths, err := s.ServerAuths()
	if err != nil {
		return nil, err
	}
	ref, err := dbapp.BuildServer()
	if err != nil {
		return nil, err
	}
	f := s.Server.Snaps.File()
	d := &dataset{
		vsec: vsec, keys: s.Keys, keySeed: "minisql", arcDir: arcDir,
		signs: issuedSigns([]*avmm.Monitor{s.Server, s.Client}),
		nodes: []*nodeData{{
			id: s.Server.Node(), idx: uint32(s.Server.Index()), ref: ref, rngSeed: seed + 500,
			entries: s.Server.Log.All(), auths: auths, snaps: &f, logBytes: s.Server.TotalLogBytes(),
		}},
	}
	if err := os.RemoveAll(arcDir); err != nil {
		return nil, err
	}
	if _, err := archiveMonitors(arcDir, []*avmm.Monitor{s.Server}); err != nil {
		return nil, err
	}
	return d, d.computeOracle()
}

// computeOracle audits every node once with the serial engine on the
// in-memory log: honest nodes must pass and the cheater must fault.
func (d *dataset) computeOracle() error {
	for _, nd := range d.nodes {
		res, _, err := nd.auditor(d.keys).Audit(audit.AuditRequest{
			Node: nd.id, NodeIdx: nd.idx, Engine: audit.EngineSerial,
			Entries: nd.entries, Auths: nd.auths,
		})
		if err != nil {
			return fmt.Errorf("oracle audit of %s: %w", nd.id, err)
		}
		if nd.want, err = oracle(res, nd.cheater); err != nil {
			return err
		}
	}
	return nil
}
