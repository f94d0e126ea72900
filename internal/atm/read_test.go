package atm

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sim"
)

// A socket read charges, by hand: the syscall (SyscallRead + ReadExtraATM)
// and the copy (bytes × CopyPerByte) under Syscall, plus KernelWakeup
// under Kernel when the reader had to block. Bytes buffered before the
// read, or landing during its syscall charge, are copied at the charge's
// wake (the relay); bytes landing after it wake a blocked reader. A second
// reader on the host, reading while the first is in its syscall charge,
// reads in a record of its own at the same cost. Each case pins the readers' clocks
// and ledgers on TCP and on UDP, and a relayed copy's instant: the bytes
// are still buffered 1 ns before the syscall's wake and gone 1 ns after.
func TestSocketReadCharges(t *testing.T) {
	k := DefaultCosts()
	syscall := k.SyscallRead + k.ReadExtraATM
	msg := bytes.Repeat([]byte("r"), 100)
	copied := sim.Duration(len(msg)) * k.CopyPerByte
	const start = 10 * time.Microsecond // when the first read starts
	const gap = time.Microsecond        // the second reader starts this much later
	for _, c := range []struct {
		name    string
		land    sim.Duration // when the bytes land
		readers int
		end     sim.Duration // when a read returns, after its start
		kernel  sim.Duration
	}{
		{"buffered", 0, 1, syscall + copied, 0},
		{"during the syscall", start + syscall/2, 1, syscall + copied, 0},
		{"after the wake", start + syscall + 50*time.Microsecond, 1, syscall + 50*time.Microsecond + k.KernelWakeup + copied, k.KernelWakeup},
		{"two readers", 0, 2, syscall + copied, 0},
	} {
		for _, sock := range []string{"tcp", "udp"} {
			s, cl := newCluster(3)
			var read [2]func(p *sim.Proc) []byte
			var land [2]func()
			var buffered func() bool // reader 0's socket
			for i := range c.readers {
				src := 2 * i // hosts 0 and 2 write to host 1
				if sock == "tcp" {
					w, r := cl.TCPPair(src, 1, OverATM)
					buffered = r.Readable
					read[i] = func(p *sim.Proc) []byte {
						buf := make([]byte, len(msg))
						return buf[:r.Read(p, buf)]
					}
					land[i] = func() { // what a segment's landing does
						f := w.getFrame(frameLand)
						f.data = append(f.data[:0], msg...)
						f.run()
					}
				} else {
					cl.UDPSocket(src, OverATM)
					u := cl.UDPSocket(1, OverATM)
					buffered = u.Readable
					read[i] = func(p *sim.Proc) []byte {
						buf := make([]byte, len(msg))
						n, _ := u.RecvFrom(p, buf)
						return buf[:n]
					}
					land[i] = func() { u.land(Datagram{Src: src, Data: msg}) }
				}
			}
			var ledgers [2]sim.Ledger
			var ends [2]sim.Duration
			for i := range c.readers {
				s.At(sim.Time(c.land), land[i])
				s.Spawn("reader", func(p *sim.Proc) {
					p.Ledger = &ledgers[i]
					p.Advance(start + sim.Duration(i)*gap)
					t0 := p.Now()
					if got := read[i](p); !bytes.Equal(got, msg) {
						t.Errorf("%s %s: read %d bytes, want %d", c.name, sock, len(got), len(msg))
					}
					ends[i] = sim.Duration(p.Now() - t0)
				})
			}
			if c.kernel == 0 && c.readers == 1 {
				wake := sim.Time(start + syscall)
				s.At(wake-1, func() {
					if !buffered() {
						t.Errorf("%s %s: copied before the syscall's wake", c.name, sock)
					}
				})
				s.At(wake+1, func() {
					if buffered() {
						t.Errorf("%s %s: not copied at the syscall's wake", c.name, sock)
					}
				})
			}
			if _, err := s.Run(); err != nil {
				t.Fatalf("%s %s: %v", c.name, sock, err)
			}
			for i := range c.readers {
				l := ledgers[i].Spent
				if ends[i] != c.end || l[sim.Syscall] != syscall+copied || l[sim.Kernel] != c.kernel {
					t.Errorf("%s %s reader %d: returned after %v with syscall %v, kernel %v; want %v, %v, %v",
						c.name, sock, i, ends[i], l[sim.Syscall], l[sim.Kernel], c.end, syscall+copied, c.kernel)
				}
			}
		}
	}
}
