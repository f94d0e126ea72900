// Package trace records message-level timelines from MPI runs: one event
// per protocol action (send start, envelope arrival, match, data landing,
// completion), timestamped in virtual time. It backs the library's
// profiling interface (the MPI standard names one; the paper's analysis of
// where each microsecond goes is exactly what these timelines show) and
// the message view of repro -explain.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Kind classifies a timeline event.
type Kind uint8

const (
	SendStart Kind = iota
	SendDone
	RecvPost
	Arrive
	Match
	RecvDone
	CollectiveStart
	CollectiveDone
)

func (k Kind) String() string {
	switch k {
	case SendStart:
		return "send-start"
	case SendDone:
		return "send-done"
	case RecvPost:
		return "recv-post"
	case Arrive:
		return "arrive"
	case Match:
		return "match"
	case RecvDone:
		return "recv-done"
	case CollectiveStart:
		return "coll-start"
	case CollectiveDone:
		return "coll-done"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one timeline record.
type Event struct {
	T     sim.Time
	Rank  int
	Kind  Kind
	Peer  int // source or destination rank; -1 when not applicable
	Tag   int
	Bytes int
	Note  string
}

// Log collects events from all ranks of a run. It is safe for the
// single-token simulation (no concurrent writers) but guards with a mutex
// anyway so host-side readers may inspect it after Run returns.
type Log struct {
	mu     sync.Mutex
	events []Event
	// Cap bounds memory; 0 means unlimited. Once exceeded, further
	// events are dropped and Dropped counts them.
	Cap     int
	Dropped int
}

// Add appends an event.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Cap > 0 && len(l.events) >= l.Cap {
		l.Dropped++
		return
	}
	l.events = append(l.events, e)
}

// Events returns a copy of the log ordered by (time, insertion).
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Len reports the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// MessageStats summarizes per-(src,dst) traffic.
type MessageStats struct {
	Messages int
	Bytes    int
	// MatchLatency sums arrival->match delay; divide by Matched for mean.
	MatchLatency sim.Duration
	Matched      int
}

// Stats aggregates the log into a (src -> dst -> stats) table using
// send-start events for counts and arrive/match pairs for latency.
func (l *Log) Stats() map[int]map[int]*MessageStats {
	out := map[int]map[int]*MessageStats{}
	get := func(src, dst int) *MessageStats {
		m, ok := out[src]
		if !ok {
			m = map[int]*MessageStats{}
			out[src] = m
		}
		s, ok := m[dst]
		if !ok {
			s = &MessageStats{}
			m[dst] = s
		}
		return s
	}
	type key struct{ rank, peer, tag int }
	arrivals := map[key][]sim.Time{}
	for _, e := range l.Events() {
		switch e.Kind {
		case SendStart:
			s := get(e.Rank, e.Peer)
			s.Messages++
			s.Bytes += e.Bytes
		case Arrive:
			k := key{e.Rank, e.Peer, e.Tag}
			arrivals[k] = append(arrivals[k], e.T)
		case Match:
			k := key{e.Rank, e.Peer, e.Tag}
			if q := arrivals[k]; len(q) > 0 {
				s := get(e.Peer, e.Rank)
				s.MatchLatency += sim.Duration(e.T - q[0])
				s.Matched++
				arrivals[k] = q[1:]
			}
		}
	}
	return out
}

// Timeline renders the log as an aligned text timeline.
func (l *Log) Timeline() string {
	var b strings.Builder
	for _, e := range l.Events() {
		fmt.Fprintf(&b, "%12.2fus  rank%-2d %-11s", e.T.Microseconds(), e.Rank, e.Kind)
		if e.Peer >= 0 {
			fmt.Fprintf(&b, " peer=%-2d", e.Peer)
		}
		if e.Bytes > 0 {
			fmt.Fprintf(&b, " %dB", e.Bytes)
		}
		if e.Tag != 0 {
			fmt.Fprintf(&b, " tag=%d", e.Tag)
		}
		if e.Note != "" {
			fmt.Fprintf(&b, " (%s)", e.Note)
		}
		b.WriteByte('\n')
	}
	if l.Dropped > 0 {
		fmt.Fprintf(&b, "  ... %d events dropped (cap %d)\n", l.Dropped, l.Cap)
	}
	return b.String()
}
