package wire

import (
	"reflect"
	"testing"

	"repro/internal/tevlog"
	"repro/internal/vm"
)

func testSession() *AuditSession {
	img := &vm.Image{
		Name: "ref-img", Code: []byte{1, 2, 3, 4, 5}, TextSize: 4,
		Entry: 0x1000, MemSize: 1 << 18, Disk: []byte("disk contents"),
	}
	img.Vectors[0] = 0x2000
	img.Vectors[3] = 0x2400
	return SessionFromImage("player1", img, 0xDEADBEEF, true, true)
}

func TestAuditSessionRoundTrip(t *testing.T) {
	s := testSession()
	got, err := ParseAuditSession(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("session round trip:\n got %+v\nwant %+v", got, s)
	}
	img, err := got.Image()
	if err != nil {
		t.Fatal(err)
	}
	if img.Hash() != mustImage(t, s).Hash() {
		t.Fatal("reassembled image hash differs")
	}
}

func mustImage(t *testing.T, s *AuditSession) *vm.Image {
	t.Helper()
	img, err := s.Image()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestAuditJobRoundTrip(t *testing.T) {
	job := &AuditJob{
		Index: 7, StartSnap: 3, StartSeq: 991,
		Mem: make([]byte, 8192), Machine: []byte{9, 8, 7},
		Device: []byte("dev"), AuthDevice: []byte("authdev"),
		Entries: []tevlog.Entry{
			{Seq: 1, Type: tevlog.TypeSend, Content: []byte("hello")},
			{Seq: 2, Type: tevlog.TypeNondet, Content: nil},
			{Seq: 3, Type: tevlog.TypeSnapshot, Content: []byte{0xFF, 0x00}},
		},
	}
	for i := range job.StartRoot {
		job.StartRoot[i] = byte(i)
	}
	for i := range job.Mem {
		job.Mem[i] = byte(i * 31)
	}
	got, err := ParseAuditJob(job.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	// The codec does not ship chain hashes or distinguish nil from empty
	// content; normalize before comparing.
	if len(job.Entries[1].Content) == 0 {
		job.Entries[1].Content = []byte{}
	}
	if len(got.Entries[1].Content) == 0 {
		got.Entries[1].Content = []byte{}
	}
	if !reflect.DeepEqual(job, got) {
		t.Fatalf("job round trip:\n got %+v\nwant %+v", got, job)
	}
}

func TestAuditVerdictRoundTrip(t *testing.T) {
	for _, v := range []*AuditVerdict{
		{Index: 0, Instructions: 123456, EntriesConsumed: 77, SendsMatched: 3,
			NondetsConsumed: 40, EventsInjected: 9, SnapshotsVerified: 2},
		{Index: 5, Instructions: 1, HasFault: true, FaultNode: "player2",
			FaultCheck: "snapshot", FaultDetail: "state root ab does not match",
			FaultEntrySeq: 4242, FaultLandmark: vm.Landmark{ICount: 99, Branches: 7, PC: 0x30}},
	} {
		got, err := ParseAuditVerdict(v.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v, got) {
			t.Fatalf("verdict round trip:\n got %+v\nwant %+v", got, v)
		}
	}
}

func TestMuxIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 127, 128, 1 << 20, 1<<64 - 1} {
		body := []byte("payload")
		framed := AppendMuxID(id, body)
		gotID, gotBody, err := SplitMuxID(framed)
		if err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
		if gotID != id || string(gotBody) != string(body) {
			t.Fatalf("mux round trip: got (%d, %q), want (%d, %q)", gotID, gotBody, id, body)
		}
	}
	if _, _, err := SplitMuxID(nil); err == nil {
		t.Fatal("empty mux body accepted")
	}
	if _, _, err := SplitMuxID([]byte{0x80}); err == nil {
		t.Fatal("truncated uvarint accepted")
	}
}

// TestDistCodecTruncation: every strict prefix of a valid encoding must be
// rejected, never crash, and never round-trip as something else.
func TestDistCodecTruncation(t *testing.T) {
	session := testSession().Marshal()
	job := (&AuditJob{Index: 1, Boot: true,
		Entries: []tevlog.Entry{{Seq: 1, Type: tevlog.TypeSend, Content: []byte("x")}}}).Marshal()
	verdict := (&AuditVerdict{Index: 2, HasFault: true, FaultDetail: "d"}).Marshal()

	for name, tc := range map[string]struct {
		buf   []byte
		parse func([]byte) error
	}{
		"session": {session, func(b []byte) error { _, err := ParseAuditSession(b); return err }},
		"job":     {job, func(b []byte) error { _, err := ParseAuditJob(b); return err }},
		"verdict": {verdict, func(b []byte) error { _, err := ParseAuditVerdict(b); return err }},
	} {
		if err := tc.parse(tc.buf); err != nil {
			t.Fatalf("%s: valid encoding rejected: %v", name, err)
		}
		for cut := 0; cut < len(tc.buf); cut++ {
			if err := tc.parse(tc.buf[:cut]); err == nil {
				t.Errorf("%s: truncation at %d/%d accepted", name, cut, len(tc.buf))
			}
		}
		if err := tc.parse(append(append([]byte(nil), tc.buf...), 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
}

// The session and verdict frames cross the coordinator↔worker connection,
// where the peer is untrusted: parsing arbitrary bytes must error, never
// panic, and any accepted body must re-marshal to exactly its input bytes
// (the codec is canonical, so no frame has two encodings).

func FuzzParseAuditSession(f *testing.F) {
	f.Add(testSession().Marshal())
	f.Add((&AuditSession{}).Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := ParseAuditSession(b)
		if err != nil {
			return
		}
		if got := s.Marshal(); !reflect.DeepEqual(got, b) {
			t.Fatalf("re-marshal differs:\n got %x\nwant %x", got, b)
		}
	})
}

func FuzzParseAuditVerdict(f *testing.F) {
	f.Add((&AuditVerdict{Index: 3, Instructions: 123456, EntriesConsumed: 77}).Marshal())
	f.Add((&AuditVerdict{Index: 5, HasFault: true, FaultNode: "player2", FaultCheck: "snapshot",
		FaultDetail: "root mismatch", FaultEntrySeq: 42,
		FaultLandmark: vm.Landmark{ICount: 99, Branches: 7, PC: 0x30}}).Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := ParseAuditVerdict(b)
		if err != nil {
			return
		}
		if got := v.Marshal(); !reflect.DeepEqual(got, b) {
			t.Fatalf("re-marshal differs:\n got %x\nwant %x", got, b)
		}
	})
}

// TestMuxSessionEnd pins the session-end kind after the registration
// frames and checks its body is the session id and nothing else.
func TestMuxSessionEnd(t *testing.T) {
	if DistFrameMuxSessionEnd != 19 {
		t.Fatalf("DistFrameMuxSessionEnd = %d, want 19", DistFrameMuxSessionEnd)
	}
	for _, id := range []uint64{0, 1, 300, 1<<64 - 1} {
		got, err := ParseMuxSessionEnd(AppendMuxID(id, nil))
		if err != nil || got != id {
			t.Fatalf("id %d: got %d, %v", id, got, err)
		}
	}
	for _, bad := range [][]byte{nil, {0x80}, {0x01, 0x00}, {0x81, 0x00}} {
		if _, err := ParseMuxSessionEnd(bad); err == nil {
			t.Errorf("session-end body %x accepted", bad)
		}
	}
}

// TestDistCodecRejectsNonCanonical: a varint with a redundant zero group,
// a flag other than 0 or 1 and a 32-bit field past 2^32-1 are each a
// second encoding of some frame, so the parsers refuse them.
func TestDistCodecRejectsNonCanonical(t *testing.T) {
	verdict := (&AuditVerdict{Index: 2}).Marshal() // eight single-byte varints
	padded := append([]byte{verdict[0] | 0x80, 0x00}, verdict[1:]...)
	if _, err := ParseAuditVerdict(padded); err == nil {
		t.Error("non-minimal varint accepted")
	}
	flagged := append([]byte(nil), verdict...)
	flagged[7] = 2 // HasFault
	if _, err := ParseAuditVerdict(flagged); err == nil {
		t.Error("flag value 2 accepted")
	}
	s := testSession()
	session := func(textSize uint64) []byte {
		w := &writer{}
		w.str(s.Node)
		w.uvarint(s.RNGSeed)
		w.uvarint(0)
		w.uvarint(0)
		w.str(s.ImageName)
		w.bytes(s.Code)
		w.uvarint(textSize)
		w.uvarint(uint64(s.Entry))
		w.uvarint(0)
		w.uvarint(s.MemSize)
		w.bytes(s.Disk)
		return w.b
	}
	if _, err := ParseAuditSession(session(1<<32 - 1)); err != nil {
		t.Fatalf("largest 32-bit field rejected: %v", err)
	}
	if _, err := ParseAuditSession(session(1 << 32)); err == nil {
		t.Error("32-bit overflow accepted")
	}
}
