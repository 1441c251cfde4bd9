package audit

import (
	"sync"

	"repro/internal/snapshot"
)

// HeldStateProbe reports whether a coordinator task still holds its
// materialized start state or its cached job frame.
type HeldStateProbe func() bool

// ProbedBackend is Backend() that, at the first verdict of each run,
// appends to probes one HeldStateProbe per task of every run the
// coordinator tracks at that moment.
func (c *Coordinator) ProbedBackend(probes *[]HeldStateProbe) EpochBackend {
	return probedBackend{coordinatorBackend{c: c}, probes}
}

type probedBackend struct {
	coordinatorBackend
	probes *[]HeldStateProbe
}

func (b probedBackend) withDelta(src func(k uint32) (*snapshot.Delta, error)) EpochBackend {
	b.deltaSrc = src
	return b
}

func (b probedBackend) Run(sess Session, jobs []*EpochJob, skip func(int) bool, emit func(EpochVerdict)) error {
	var once sync.Once
	return b.c.enqueueRun(sess, jobs, skip, func(v EpochVerdict) {
		once.Do(func() {
			b.c.mu.Lock()
			defer b.c.mu.Unlock()
			for _, run := range b.c.runs {
				for _, t := range run.tasks {
					*b.probes = append(*b.probes, func() bool {
						t.encMu.Lock()
						defer t.encMu.Unlock()
						return t.enc != nil || t.job.Start != nil
					})
				}
			}
		})
		emit(v)
	}, b.deltaSrc)
}
