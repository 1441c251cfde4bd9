package audit_test

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/sig"
)

// TestReplayFeedBatchIndependent: a replay's verdict and stats must not
// depend on how its log was cut into Feed batches. The log is the cheater's
// from a 3-player nosmoke match (seed 18), which once faulted at a
// different instruction when a batch ended on synchronous entries with the
// next asynchronous landmark not yet fed: the replica sprinted past it.
func TestReplayFeedBatchIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("records a 12 s match")
	}
	cheat, err := game.CatalogByName("nosmoke")
	if err != nil {
		t.Fatal(err)
	}
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 3, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 18, SnapshotEveryNs: 5_000_000_000, FakeSignatures: true,
		CheatPlayer: 2, Cheat: cheat,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(12_000_000_000)
	const node = sig.NodeID("player2")
	target, _, a, err := s.AuditInputs(node)
	if err != nil {
		t.Fatal(err)
	}
	entries := target.Log.Entries()

	replay := func(batch int) *audit.Replay {
		rp, err := audit.NewReplayFromImage(node, a.RefImage, a.RNGSeed)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(entries) && rp.Fault() == nil; lo += batch {
			hi := min(lo+batch, len(entries))
			rp.Feed(entries[lo:hi])
			rp.Run()
		}
		rp.Close()
		rp.Run()
		return rp
	}
	whole := replay(len(entries))
	if whole.Fault() == nil {
		t.Fatal("the nosmoke cheater's log replayed clean")
	}
	for _, batch := range []int{1, 2, 3, 5, 8, 13, 21} {
		got := replay(batch)
		label := fmt.Sprintf("batches of %d", batch)
		if got.Fault() == nil {
			t.Errorf("%s: no fault, whole log faulted: %v", label, whole.Fault())
			continue
		}
		if *got.Fault() != *whole.Fault() {
			t.Errorf("%s: fault %+v, whole log %+v", label, *got.Fault(), *whole.Fault())
		}
		if got.Stats != whole.Stats {
			t.Errorf("%s: replay stats %+v, whole log %+v", label, got.Stats, whole.Stats)
		}
	}
}
