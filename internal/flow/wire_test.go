package flow

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// Property: header encode/decode is the identity on every field the wire
// carries (within field widths).
func TestHeaderRoundTripProperty(t *testing.T) {
	prop := func(kind uint8, credit uint32, src, ctx uint16, tag int32, count, id, aux uint32, mode uint8) bool {
		env := core.Envelope{
			Source:  int(src),
			Context: int(ctx),
			Tag:     int(tag),
			Count:   int(count),
			SendID:  int64(id),
			Mode:    core.Mode(mode % 4),
		}
		k := core.PacketKind(kind % 6)
		h := EncodeHeader(k, int(credit), env, aux)
		if len(h) != 25 {
			return false
		}
		gk, gc, genv, gaux := DecodeHeader(h[:])
		return gk == k && gc == int(credit) && gaux == aux &&
			genv.Source == env.Source && genv.Context == env.Context &&
			genv.Tag == env.Tag && genv.Count == env.Count &&
			genv.SendID == env.SendID && genv.Mode == env.Mode
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderIs25Bytes(t *testing.T) {
	if HeaderBytes != 25 {
		t.Fatalf("header is %d bytes; the paper specifies 25", HeaderBytes)
	}
}

func TestHeaderNegativeTag(t *testing.T) {
	// Chunk offsets travel in the tag field and collective tags are small
	// positives, but the codec must survive negative int32 values.
	env := core.Envelope{Tag: -5}
	h := EncodeHeader(core.PktData, 0, env, 0)
	_, _, got, _ := DecodeHeader(h[:])
	if got.Tag != -5 {
		t.Fatalf("tag = %d", got.Tag)
	}
}

// FuzzHeaderCodec decodes any 25 bytes and encodes the result: every bit of
// the header belongs to exactly one field, so the round trip is the identity
// and no value of any field panics the codec.
func FuzzHeaderCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < HeaderBytes {
			return // the transports read HeaderBytes off the wire before they decode
		}
		kind, credit, env, aux := DecodeHeader(raw)
		if h := EncodeHeader(kind, credit, env, aux); !bytes.Equal(h[:], raw[:HeaderBytes]) {
			t.Fatalf("decode then encode:\n got %x\nfrom %x", h, raw[:HeaderBytes])
		}
	})
}
