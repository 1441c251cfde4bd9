package audit_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/sig"
)

// TestCoordinatorSessionsEndWithRuns is the per-connection memory bound's
// regression test: a hundred audits through one coordinator and one
// loopback worker, and after each run the coordinator tracks no session
// for it, the worker holds none, and no task of the run still holds its
// materialized start state or its cached job frame. Before sessions ended
// with their runs, both session counts grew by one per audit for the life
// of the connection.
func TestCoordinatorSessionsEndWithRuns(t *testing.T) {
	s := coordScenario(t, "")
	nodes := []string{"player1", "player2"}
	serial := make(map[string]*audit.Result)
	for _, node := range nodes {
		res, err := s.AuditNode(sig.NodeID(node))
		if err != nil {
			t.Fatal(err)
		}
		serial[node] = res
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	worker := &audit.EpochWorker{}
	go worker.Serve(l)
	defer worker.Drain(time.Second)
	coord := testCoordinator(audit.CoordinatorConfig{DisableLocalFallback: true})
	defer coord.Close()
	coord.AddWorker(l.Addr().String())
	tracked := coord.Metrics().Gauge("runs_tracked")

	const audits = 100
	for i := 0; i < audits; i++ {
		node := nodes[i%len(nodes)]
		label := fmt.Sprintf("audit %d (%s)", i, node)
		var probes []audit.HeldStateProbe
		res, _, err := s.AuditNodeDist(sig.NodeID(node), audit.DistOptions{
			Backend:       coord.ProbedBackend(&probes),
			EngineOptions: audit.EngineOptions{DeltaJobs: true},
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		compareVerdicts(t, label, serial[node], res)
		if n := tracked.Value(); n != 0 {
			t.Fatalf("%s: coordinator tracks %d runs after the run settled", label, n)
		}
		// The end frame reaches the worker after Audit returns.
		deadline := time.Now().Add(5 * time.Second)
		for worker.Sessions() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: worker still holds %d sessions", label, worker.Sessions())
			}
			time.Sleep(time.Millisecond)
		}
		if len(probes) == 0 {
			t.Fatalf("%s: no task probed", label)
		}
		for k, held := range probes {
			if held() {
				t.Fatalf("%s: task %d still holds its start state or job frame", label, k)
			}
		}
	}
	if st := coord.Stats(); st.EpochsDone < audits || st.LocalFallbackEpochs != 0 {
		t.Fatalf("the worker did not carry the audits: %+v", st)
	}
}
