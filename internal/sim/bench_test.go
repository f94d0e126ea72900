package sim

import (
	"testing"
	"time"
)

// Host-side performance of the simulation kernel itself.

func BenchmarkEventDispatch(b *testing.B) {
	s := NewScheduler(1)
	n := 0
	var loop func()
	loop = func() {
		n++
		if n < b.N {
			s.After(1, loop)
		}
	}
	s.At(0, loop)
	b.ResetTimer()
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitch measures an Advance that parks: two procs step in
// lock-step, so each one's wakeup always has the other's queued ahead of it
// and every Advance is a heap push, a park, a pop and a resume.
func BenchmarkProcSwitch(b *testing.B) {
	benchAdvance(b, 2)
}

// BenchmarkAdvanceRunAhead measures an Advance that keeps the token: the
// only proc's wakeup is always the next event.
func BenchmarkAdvanceRunAhead(b *testing.B) {
	benchAdvance(b, 1)
}

func benchAdvance(b *testing.B, procs int) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			s, run, _ := newTestKernel(k.lanes, 0)
			for i := 0; i < procs; i++ {
				s.Spawn("p", func(p *Proc) {
					for i := 0; i < b.N/procs; i++ {
						p.Advance(time.Nanosecond)
					}
				})
			}
			b.ResetTimer()
			if _, err := run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCondHandoff measures the Cond wait/signal cycle between two
// procs on one scheduler.
func BenchmarkCondHandoff(b *testing.B) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			s, run, _ := newTestKernel(k.lanes, 0)
			c1 := NewCond(s)
			c2 := NewCond(s)
			// a spawns first, so it is parked on c1 before b's first signal.
			s.Spawn("a", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					c1.Wait(p)
					c2.Signal()
				}
			})
			s.Spawn("b", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					c1.Signal()
					c2.Wait(p)
				}
			})
			b.ResetTimer()
			if _, err := run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
