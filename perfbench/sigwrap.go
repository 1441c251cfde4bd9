package main

import (
	"sync/atomic"
	"time"

	"repro/internal/sig"
)

// countingVerifier wraps a verifier so each Verify is counted and, while
// the recorder has a current span, recorded as a "sig.verify" leaf span
// that carries its timing. It is installed through KeyStore.Add, so every
// audit path that looks keys up in the store goes through it unchanged.
type countingVerifier struct {
	sig.Verifier
	count *atomic.Int64
	rec   *Recorder
}

// Verify implements sig.Verifier.
func (v *countingVerifier) Verify(msg, signature []byte) bool {
	start := time.Now()
	ok := v.Verifier.Verify(msg, signature)
	v.count.Add(1)
	v.rec.Leaf("sig.verify", start, time.Now())
	return ok
}

// wrapKeys adds every verifier of src to dst wrapped in a countingVerifier.
// dst may be src itself, which then counts from here on.
func wrapKeys(dst, src *sig.KeyStore, count *atomic.Int64, rec *Recorder) *sig.KeyStore {
	for _, id := range src.IDs() {
		v, _ := src.Lookup(id)
		dst.Add(&countingVerifier{Verifier: v, count: count, rec: rec})
	}
	return dst
}
