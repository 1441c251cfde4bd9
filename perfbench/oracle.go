package main

import (
	"fmt"

	"repro/internal/audit"
)

// verdict is the part of an audit Result every engine must reproduce
// exactly: pass or fail, where a fault was found, and the syntactic and
// replay statistics.
type verdict struct {
	Passed    bool
	Check     audit.Check
	EntrySeq  uint64
	Replay    audit.ReplayStats
	Syntactic audit.SyntacticStats
}

func verdictOf(r *audit.Result) verdict {
	v := verdict{Passed: r.Passed, Replay: r.Replay, Syntactic: r.Syntactic}
	if r.Fault != nil {
		v.Check, v.EntrySeq = r.Fault.Check, r.Fault.EntrySeq
	}
	return v
}

func (v verdict) String() string {
	if v.Passed {
		return fmt.Sprintf("PASS (%d entries, %d instructions)", v.Syntactic.Entries, v.Replay.Instructions)
	}
	return fmt.Sprintf("FAULT %s at entry %d", v.Check, v.EntrySeq)
}

// diff names the fields that differ between v and w, with both values.
func (v verdict) diff(w verdict) string {
	out := ""
	if v.Replay != w.Replay {
		out += fmt.Sprintf("; replay %+v, want %+v", v.Replay, w.Replay)
	}
	if v.Syntactic != w.Syntactic {
		out += fmt.Sprintf("; syntactic %+v, want %+v", v.Syntactic, w.Syntactic)
	}
	return out
}

// oracle returns the expected verdict for one audited log from a
// reference result computed once at set-up, requiring the verdict the
// workload was built to produce: a pass for an honest machine, a fault for
// the cheater.
func oracle(ref *audit.Result, wantFault bool) (verdict, error) {
	if ref == nil {
		return verdict{}, fmt.Errorf("oracle: no reference result")
	}
	v := verdictOf(ref)
	switch {
	case wantFault && v.Passed:
		return verdict{}, fmt.Errorf("oracle: %s should FAULT but the reference audit passed", ref.Node)
	case !wantFault && !v.Passed:
		return verdict{}, fmt.Errorf("oracle: %s should PASS but the reference audit found %s: %s", ref.Node, v, ref.Fault.Detail)
	}
	return v, nil
}

// check compares one timed operation's outcome with the expected verdict.
// An error, a missing result or any differing field fails the operation.
func (want verdict) check(got *audit.Result, err error) error {
	if err != nil {
		return err
	}
	if got == nil {
		return fmt.Errorf("oracle: no result")
	}
	if g := verdictOf(got); g != want {
		return fmt.Errorf("oracle: %s: got %s, want %s%s", got.Node, g, want, g.diff(want))
	}
	return nil
}
