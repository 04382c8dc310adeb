package main

import (
	"testing"
	"time"

	"bbcast/internal/wire"
)

func TestLedgerAccountsOpsAndFailures(t *testing.T) {
	payload := []byte("shared")
	led := newLedger(payload)
	a := wire.MsgID{Origin: 0, Seq: 1}
	b := wire.MsgID{Origin: 1, Seq: 1}
	led.expect(a, 10*time.Millisecond, nil)
	led.expect(b, 20*time.Millisecond, []byte("own"))

	led.accept(10*time.Millisecond, 0, a, payload) // originator: not an op
	led.accept(15*time.Millisecond, 1, a, payload)
	led.accept(30*time.Millisecond, 2, a, payload)
	led.accept(40*time.Millisecond, 3, a, payload)
	led.accept(25*time.Millisecond, 0, b, []byte("own"))
	led.accept(90*time.Millisecond, 0, b, []byte("own"))  // re-delivery
	led.accept(26*time.Millisecond, 2, b, []byte("evil")) // wrong payload
	led.accept(50*time.Millisecond, 2, wire.MsgID{Origin: 3, Seq: 9}, payload)

	got := led.account(func(wire.NodeID) int { return 3 })
	want := ops{attempted: 6, delivered: 5, redelivered: 1, failed: 2}
	if got != want {
		t.Fatalf("ops = %+v, want %+v", got, want)
	}
	if r := got.deliveryRatio(); r != 5.0/6 {
		t.Fatalf("delivery ratio = %g, want %g", r, 5.0/6)
	}
	if bad := led.bad(); bad != 1 {
		t.Fatalf("bad payloads = %d, want 1", bad)
	}
	// One sample per first remote delivery, measured from the due time.
	lat := led.latencies()
	wantLat := []float64{5, 5, 6, 20, 30}
	if len(lat) != len(wantLat) {
		t.Fatalf("latencies = %v, want %v", lat, wantLat)
	}
	for i := range lat {
		if lat[i] != wantLat[i] {
			t.Fatalf("latencies = %v, want %v", lat, wantLat)
		}
	}
}

func TestLedgerCountsUndeliveredOps(t *testing.T) {
	led := newLedger(nil)
	led.expect(wire.MsgID{Origin: 0, Seq: 1}, 0, []byte{1})
	got := led.account(func(wire.NodeID) int { return 4 })
	if want := (ops{attempted: 4, failed: 4}); got != want {
		t.Fatalf("ops = %+v, want %+v", got, want)
	}
}
