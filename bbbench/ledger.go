package main

import (
	"bytes"
	"sort"
	"sync"
	"time"

	"bbcast/internal/wire"
)

// ledger records the messages injected in the measured window, what each
// carried, when each was due, and every acceptance of them. Live nodes
// deliver from their own goroutines, so it is locked.
type ledger struct {
	mu sync.Mutex
	// due is when each window message was due to be injected.
	due map[wire.MsgID]time.Duration
	// payload holds what a window message carried when that was not
	// shared, the payload every simulated injection carries.
	payload map[wire.MsgID][]byte
	shared  []byte
	// got counts the acceptances of each window message per receiver.
	got map[wire.MsgID]map[wire.NodeID]int
	// latMS holds one sample per first remote acceptance: accept time minus
	// due time, in milliseconds.
	latMS []float64
	// badPayload counts acceptances whose payload differs from what was
	// injected under that id.
	badPayload int
}

func newLedger(shared []byte) *ledger {
	return &ledger{
		due:     make(map[wire.MsgID]time.Duration),
		payload: make(map[wire.MsgID][]byte),
		shared:  shared,
		got:     make(map[wire.MsgID]map[wire.NodeID]int),
	}
}

// expect registers a window message before any node can accept it. A nil
// payload means the message carries the ledger's shared payload.
func (l *ledger) expect(id wire.MsgID, due time.Duration, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.due[id] = due
	if payload != nil {
		l.payload[id] = payload
	}
	l.got[id] = make(map[wire.NodeID]int)
}

// accept records node accepting id at the given time. Acceptances of
// messages outside the window and the originator's own are ignored.
func (l *ledger) accept(at time.Duration, node wire.NodeID, id wire.MsgID, payload []byte) {
	if node == id.Origin {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	byNode, ok := l.got[id]
	if !ok {
		return
	}
	want := l.shared
	if p, ok := l.payload[id]; ok {
		want = p
	}
	if !bytes.Equal(payload, want) {
		l.badPayload++
	}
	byNode[node]++
	if byNode[node] == 1 {
		l.latMS = append(l.latMS, float64(at-l.due[id])/float64(time.Millisecond))
	}
}

// ops is the failure accounting of one window. One op is one (message,
// eligible receiver) pair; it fails when the receiver never accepted the
// message or accepted it more than once.
type ops struct {
	attempted   int
	delivered   int
	redelivered int
	failed      int
}

// deliveryRatio is delivered ops over attempted ops.
func (o ops) deliveryRatio() float64 { return ratio(float64(o.delivered), float64(o.attempted)) }

// account tallies the window's ops; eligible gives the number of correct
// receivers a message from origin should reach.
func (l *ledger) account(eligible func(origin wire.NodeID) int) ops {
	l.mu.Lock()
	defer l.mu.Unlock()
	var o ops
	for id, byNode := range l.got {
		o.attempted += eligible(id.Origin)
		for _, n := range byNode {
			o.delivered++
			if n > 1 {
				o.redelivered++
			}
		}
	}
	o.failed = o.attempted - o.delivered + o.redelivered
	return o
}

// latencies returns the latency samples in ascending order.
func (l *ledger) latencies() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := append([]float64(nil), l.latMS...)
	sort.Float64s(s)
	return s
}

// bad reports how many acceptances carried the wrong payload.
func (l *ledger) bad() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.badPayload
}
