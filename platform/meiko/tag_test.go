package meiko

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/meiko"
	"repro/internal/sim"
)

// Property: the MPICH tag encoding round-trips (ctx, src, tag) and the
// receive pattern matches exactly the envelopes MPI semantics say it must.
func TestMPICHTagEncodingProperty(t *testing.T) {
	prop := func(ctx, src uint16, tag uint32, wildcardSrc, wildcardTag bool) bool {
		tg := int(tag & 0xFFFFFF)
		enc := encodeMPICHTag(int(ctx), int(src), tg)
		// Decode the fields back.
		if int((enc&mpichSrcMask)>>mpichSrcSh) != int(src) {
			return false
		}
		if int(enc&mpichTagMask) != tg {
			return false
		}
		if int((enc&mpichCtxMask)>>mpichCtxSh) != int(ctx) {
			return false
		}
		wantSrc := int(src)
		if wildcardSrc {
			wantSrc = core.AnySource
		}
		wantTag := tg
		if wildcardTag {
			wantTag = core.AnyTag
		}
		want, mask := recvPattern(int(ctx), wantSrc, wantTag)
		// The message must match its own pattern...
		if enc&mask != want&mask {
			return false
		}
		// ...but not with the sync bit flipped into the ack channel.
		ack := enc | mpichAckBit
		return ack&mask != want&mask
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

func TestRecvPatternContextNeverWild(t *testing.T) {
	want, mask := recvPattern(3, core.AnySource, core.AnyTag)
	other := encodeMPICHTag(4, 1, 1)
	if other&mask == want&mask {
		t.Fatal("pattern matched a different context")
	}
	same := encodeMPICHTag(3, 9, 12345)
	if same&mask != want&mask {
		t.Fatal("wildcard pattern rejected a matching envelope")
	}
}

func TestSyncBitIgnoredInMatching(t *testing.T) {
	want, mask := recvPattern(1, 2, 7)
	env := encodeMPICHTag(1, 2, 7) | mpichSyncBit
	if env&mask != want&mask {
		t.Fatal("sync-mode envelope did not match a plain receive")
	}
}

// The MPICH device takes ranks 0..size-1 on both sides: a source or a
// destination equal to size is the typed invalid-rank error, never a post
// (ROADMAP item 30: a `>=` weakened to `>` on the receive's bound passed
// every test and record), and size-1 is accepted.
func TestMPICHRankBoundIsSize(t *testing.T) {
	s := sim.NewScheduler(1)
	e := newMPICHEndpoint(meiko.NewMachine(s, 2, meiko.DefaultCosts()), 0, 2)
	invalid := func(err error) bool {
		var ce *core.Error
		return errors.As(err, &ce) && ce.Code == core.ErrInternal
	}
	s.Spawn("rank0", func(p *sim.Proc) {
		buf := make([]byte, 1)
		if req, err := e.Irecv(p, 2, 0, 0, buf); req != nil || !invalid(err) {
			t.Errorf("Irecv from source 2 of 2: %v, %v; want the invalid-rank error", req, err)
		}
		if req, err := e.Isend(p, 2, 0, 0, core.ModeStandard, buf); req != nil || !invalid(err) {
			t.Errorf("Isend to rank 2 of 2: %v, %v; want the invalid-rank error", req, err)
		}
		if _, err := e.Irecv(p, 1, 0, 0, buf); err != nil {
			t.Errorf("Irecv from source 1 of 2: %v", err)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
