package main

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
)

func TestTailRule(t *testing.T) {
	for n := 1; n <= 10; n++ {
		if _, ok := tail(make([]float64, n)); ok {
			t.Fatalf("n=%d: a tail needs more than %d samples", n, tailBeyond)
		}
	}
	for n := 11; n <= 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		got, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Fatalf("n=%d: p%d = %v has %d samples beyond it, want >= %d", n, got.Pct, got.Value, beyond, tailBeyond)
		}
		// The next percentile up must leave fewer than tailBeyond beyond.
		if next := got.Pct + 1; next <= 100 && n-(next*n+99)/100 >= tailBeyond {
			t.Fatalf("n=%d: p%d is not the highest qualifying percentile", n, got.Pct)
		}
		if got.N != n {
			t.Fatalf("n=%d: sample count %d", n, got.N)
		}
	}
	if got, _ := tail(seq(100)); got.Pct != 90 || got.Value != 90 {
		t.Fatalf("100 samples: got p%d = %v, want p90 = 90", got.Pct, got.Value)
	}
	if got, _ := tail(seq(1000)); got.Pct != 99 || got.Value != 990 {
		t.Fatalf("1000 samples: got p%d = %v, want p99 = 990", got.Pct, got.Value)
	}
}

// seq returns 1..n.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestSelfTimesNestedAndParallel(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: parallel siblings
		{ID: 4, Parent: 2, Name: "a.inner", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Parent: 3, Name: "b.x", Start: 35, End: 45},
		{ID: 7, Parent: 3, Name: "b.y", Start: 40, End: 50}, // overlaps b.x
	}
	self := SelfTimes(spans)
	want := map[int64]int64{
		1: 100 - 50 - 10, // children cover [10,60] once, plus [90,100]
		2: 30 - 10,
		3: 30 - 15, // b.x and b.y cover [35,50] once
		4: 10,
		5: 30,
		6: 10,
		7: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if c := ChildCover(spans); c[1] != 60 || c[3] != 15 {
		t.Errorf("child cover: root %d (want 60), b %d (want 15)", c[1], c[3])
	}
	sum := Summarize(spans)
	if sum.Self["root"] != 40 || sum.Count["root"] != 1 || sum.Dur["b"] != 30 {
		t.Errorf("summary: %+v", sum)
	}
}

func TestLeafSpansAttachToCurrentStage(t *testing.T) {
	rec := NewRecorder()
	rec.Leaf("outside", time.Now(), time.Now()) // no current stage: dropped
	tr := rec.NewTrace()
	stage := rec.Stage("stage", 0, tr, func() {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				rec.Leaf("leaf", start, time.Now())
			}()
		}
		wg.Wait()
	})
	spans := rec.TraceSpans(tr)
	if len(spans) != 5 {
		t.Fatalf("got %d spans in the trace, want the stage and 4 leaves", len(spans))
	}
	for _, s := range spans {
		if s.Name == "leaf" && s.Parent != stage {
			t.Errorf("leaf parent %d, want stage %d", s.Parent, stage)
		}
	}
	if len(rec.Spans()) != 5 {
		t.Errorf("a leaf outside any stage was recorded")
	}
}

func TestOracleRejectsFlippedVerdict(t *testing.T) {
	pass := &audit.Result{
		Node: "player1", Passed: true,
		Syntactic: audit.SyntacticStats{Entries: 100, SigsVerified: 7},
		Replay:    audit.ReplayStats{Instructions: 5000, EntriesConsumed: 90},
	}
	want, err := oracle(pass, false)
	if err != nil {
		t.Fatal(err)
	}
	same := *pass
	if err := want.check(&same, nil); err != nil {
		t.Fatalf("identical verdict rejected: %v", err)
	}
	flipped := *pass
	flipped.Passed = false
	flipped.Fault = &audit.FaultReport{Node: "player1", Check: audit.CheckSemantic, EntrySeq: 17}
	if err := want.check(&flipped, nil); err == nil {
		t.Fatal("a pass flipped to a fault was accepted")
	}
	drift := *pass
	drift.Replay.Instructions++
	if err := want.check(&drift, nil); err == nil {
		t.Fatal("a pass with different replay statistics was accepted")
	}
	if err := want.check(&same, errors.New("transport")); err == nil {
		t.Fatal("an operation error was accepted")
	}
	if err := want.check(nil, nil); err == nil {
		t.Fatal("a missing result was accepted")
	}

	fault := &audit.Result{Node: "player2", Fault: &audit.FaultReport{Check: audit.CheckSemantic, EntrySeq: 17}}
	wantFault, err := oracle(fault, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := wantFault.check(pass, nil); err == nil {
		t.Fatal("the cheater passing was accepted")
	}
	moved := *fault
	moved.Fault = &audit.FaultReport{Check: audit.CheckSemantic, EntrySeq: 18}
	if err := wantFault.check(&moved, nil); err == nil {
		t.Fatal("a fault at a different entry was accepted")
	}
	other := *fault
	other.Fault = &audit.FaultReport{Check: audit.CheckSnapshot, EntrySeq: 17}
	if err := wantFault.check(&other, nil); err == nil {
		t.Fatal("a fault of a different check was accepted")
	}
	if _, err := oracle(pass, true); err == nil {
		t.Fatal("oracle accepted a passing reference for the cheater")
	}
	if _, err := oracle(fault, false); err == nil {
		t.Fatal("oracle accepted a faulting reference for an honest node")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd: %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even: %v", m)
	}
}
