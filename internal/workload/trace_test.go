package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	return &Trace{
		Cfg: Config{
			Pattern: "halo", Backend: "cluster/tcp", Ranks: 8, Lanes: 2,
			Steps: 20, Bytes: 1024, Seed: 7,
			Rate: 1500.5, Compute: 20 * time.Microsecond,
		},
		Events: []Event{
			{T: 1000, Rank: 0, Op: OpExchange, Peer: 1, Tag: 0, Bytes: 1024, Dur: 900},
			{T: 1000, Rank: 3, Op: OpExchange, Peer: 2, Tag: 0, Bytes: 1024, Dur: 850},
			{T: 2500, Rank: 1, Op: OpCollective, Peer: -1, Tag: 1, Bytes: 8192, Dur: 1500},
			{T: 4000, Rank: 2, Op: OpStep, Peer: -1, Tag: 1, Bytes: 4096, Dur: 3000},
			{T: 9000, Rank: 7, Op: OpRequest, Peer: 0, Tag: 5, Bytes: 64, Dur: 5000},
		},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace()
	data := tr.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", tr, got)
	}
	// Canonical: marshaling the decoded trace reproduces the bytes.
	if again := got.Marshal(); !reflect.DeepEqual(data, again) {
		t.Fatal("re-marshal is not byte-identical")
	}
}

// v1OneEvent is a valid v1 trace (the header still carried the arrival
// process and the parallel flag): pattern halo on mem, one event.
var v1OneEvent = []byte("MPWT\x01\x00\x04halo\x03mem\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x00\x01\x01\x00\x08\x02\x81\x47\xeb\x8c")

// A trace stamped with a future format version, or a valid trace of an
// older one, must be rejected with a typed error carrying that version,
// not misparsed.
func TestUnmarshalRejectsNewerVersion(t *testing.T) {
	future := sampleTrace().Marshal()
	binary.LittleEndian.PutUint16(future[4:6], Version+1)
	body := future[:len(future)-4]
	binary.LittleEndian.PutUint32(future[len(future)-4:], crc32.ChecksumIEEE(body))
	for _, tc := range []struct {
		name string
		data []byte
		ver  uint16
	}{{"future", future, Version + 1}, {"v1", v1OneEvent, 1}} {
		_, err := Unmarshal(tc.data)
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: want *FormatError, got %v", tc.name, err)
		}
		if fe.Version != tc.ver {
			t.Fatalf("%s: want rejected version %d reported, got %d (%v)", tc.name, tc.ver, fe.Version, fe)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"short":     []byte("MPW"),
		"bad magic": append([]byte("NOPE"), make([]byte, 32)...),
	}
	data := sampleTrace().Marshal()
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit flip"] = flipped
	cases["truncated"] = data[:len(data)-9]
	for name, b := range cases {
		var fe *FormatError
		if _, err := Unmarshal(b); !errors.As(err, &fe) {
			t.Errorf("%s: want *FormatError, got %v", name, err)
		}
	}
}

// A header that declares more events than the bytes behind it could hold is
// corruption, rejected before anything is allocated for them.
func TestUnmarshalBoundsEventCountByLength(t *testing.T) {
	data := (&Trace{}).Marshal()
	body := data[:len(data)-5] // up to the zero event count
	body = binary.AppendUvarint(body, 1<<20)
	data = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	var fe *FormatError
	if _, err := Unmarshal(data); !errors.As(err, &fe) || !strings.Contains(fe.Msg, "event count") {
		t.Fatalf("want an event-count *FormatError, got %v", err)
	}
}

// reseal stamps the magic, this build's version and a matching checksum onto
// a copy of data, so a mutated input reaches the parser behind them.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < len(traceMagic)+2+4 {
		return out
	}
	copy(out, traceMagic)
	binary.LittleEndian.PutUint16(out[4:6], Version)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}

// FuzzUnmarshal decodes arbitrary bytes, as given and resealed. The answer is
// a *FormatError or a trace whose encoding is canonical (it decodes, and
// encodes to the same bytes again) — never a panic, a hang or another error.
func FuzzUnmarshal(f *testing.F) {
	f.Add(sampleTrace().Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			tr, err := Unmarshal(in)
			if err != nil {
				var fe *FormatError
				if !errors.As(err, &fe) {
					t.Fatalf("Unmarshal returned %T (%v), want *FormatError", err, err)
				}
				continue
			}
			enc := tr.Marshal()
			again, err := Unmarshal(enc)
			if err != nil {
				t.Fatalf("a decoded trace re-encodes to bytes that do not decode: %v", err)
			}
			if !bytes.Equal(enc, again.Marshal()) {
				t.Fatal("Marshal is not canonical on a decoded trace")
			}
		}
	})
}

// Diff reports the first divergent event with its rank/time/op context.
func TestDiffReportsFirstDivergence(t *testing.T) {
	base := sampleTrace()
	perturbed, err := Unmarshal(base.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	perturbed.Events[3].Dur += 7 // a one-event perturbation

	div := Diff(perturbed, base)
	if div == nil {
		t.Fatal("perturbation not detected")
	}
	if div.Index != 3 {
		t.Fatalf("first divergence at index %d, want 3", div.Index)
	}
	want := perturbed.Events[3]
	if int32(div.Rank) != want.Rank || int64(div.T) != want.T || div.Op != want.Op {
		t.Fatalf("context %+v does not cite the perturbed event %v", div, want)
	}
	if div.Want == nil || div.Got == nil || *div.Want == *div.Got {
		t.Fatalf("divergence should carry both events: %v", div)
	}

	if d := Diff(base, base); d != nil {
		t.Fatalf("identical traces reported divergent: %v", d)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	base := sampleTrace()
	short := &Trace{Cfg: base.Cfg, Events: base.Events[:3]}

	if div := Diff(base, short); div == nil || div.Index != 3 || div.Got != nil {
		t.Fatalf("missing tail not reported: %v", div)
	}
	if div := Diff(short, base); div == nil || div.Index != 3 || div.Want != nil {
		t.Fatalf("extra tail not reported: %v", div)
	}
}
