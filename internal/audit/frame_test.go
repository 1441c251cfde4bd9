package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// TestReadDistFrameDeclaredHugeThenClosed: a peer that declares a frame of
// wire.MaxDistFrame bytes and hangs up costs the reader about what it
// sent, not the gigabyte it declared.
func TestReadDistFrameDeclaredHugeThenClosed(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], wire.MaxDistFrame)
		client.Write(hdr[:])
		client.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readDistFrame(server)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a 4-byte frame header allocated %d bytes", grew)
	}
}

// TestReadDistFrameSizes round-trips bodies on both sides of the
// incremental buffer's growth steps and rejects a body cut short.
func TestReadDistFrameSizes(t *testing.T) {
	for _, n := range []int{0, 1, frameReadChunk - 2, frameReadChunk - 1, frameReadChunk, 3*frameReadChunk + 7} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := writeDistFrame(&buf, wire.DistFrameVerdict, body); err != nil {
			t.Fatal(err)
		}
		kind, got, err := readDistFrame(bytes.NewReader(buf.Bytes()))
		if err != nil || kind != wire.DistFrameVerdict || !bytes.Equal(got, body) {
			t.Fatalf("%d-byte body: kind %d, %d bytes, err %v", n, kind, len(got), err)
		}
		cut := buf.Bytes()[:buf.Len()-1]
		if _, _, err := readDistFrame(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d-byte body cut short: err = %v, want unexpected EOF", n, err)
		}
	}
}
