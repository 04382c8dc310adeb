//bbvet:wallclock live cluster: real UDP sockets, wall-clock deadlines and an open-loop generator paced by the wall clock

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bbcast/internal/core"
	"bbcast/internal/obsv"
	"bbcast/internal/sig"
	"bbcast/internal/transport"
	"bbcast/internal/wire"
)

// udpShape sizes the live workload: k nodes, the network-wide injection
// rate, and each session's injection window and drain limit.
type udpShape struct {
	nodes  int
	rate   float64
	window time.Duration
	drain  time.Duration
}

// convergeTimeout bounds how long a session waits for its cluster to form.
const convergeTimeout = 20 * time.Second

// udpSession is one measured session of the live cluster.
type udpSession struct {
	setupS    float64
	cpu       time.Duration
	wall      time.Duration
	heapMB    float64
	ops       ops
	lat       []float64
	tapBytes  int64
	latenessM float64 // worst generator lateness, ms
	injects   int
	// badPayload counts acceptances whose payload differs from the one
	// injected under that id.
	badPayload int
	layers     map[string]float64 // traced sessions only
	spans      *tracer
}

// udpScheme wraps the nodes' signature scheme with flat spans and counts;
// nodes sign and verify from several goroutines at once.
type udpScheme struct {
	sig.Scheme
	tr                           *tracer
	signID, verifyID             int
	signs, verifies, verifyFails atomic.Int64
}

func (s *udpScheme) Sign(id uint32, msg []byte) []byte {
	start := s.tr.now()
	out := s.Scheme.Sign(id, msg)
	if s.tr.leaf(s.signID, start, s.tr.now()) {
		s.signs.Add(1)
	}
	return out
}

func (s *udpScheme) Verify(id uint32, msg, tag []byte) bool {
	start := s.tr.now()
	ok := s.Scheme.Verify(id, msg, tag)
	if s.tr.leaf(s.verifyID, start, s.tr.now()) {
		s.verifies.Add(1)
		if !ok {
			s.verifyFails.Add(1)
		}
	}
	return ok
}

// tap is a passive station in the broadcast domain: every node lists it as a
// peer, so it receives each frame once, as a monitor on a radio channel
// would. It counts the bytes on the air and, when tracing, keeps frames for
// timing the codec.
type tap struct {
	conn     *net.UDPConn
	bytes    atomic.Int64
	counting atomic.Bool
	keep     bool
	mu       sync.Mutex
	frames   map[wire.Kind][][]byte
	done     chan struct{}
}

func newTap(keep bool) (*tap, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("tap: %w", err)
	}
	t := &tap{conn: conn, keep: keep, frames: make(map[wire.Kind][][]byte), done: make(chan struct{})}
	go t.read()
	return t, nil
}

func (t *tap) read() {
	defer close(t.done)
	buf := make([]byte, 64*1024)
	for {
		n, _, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if !t.counting.Load() {
			continue
		}
		t.bytes.Add(int64(n))
		if t.keep && n > 0 {
			k := wire.Kind(buf[0])
			t.mu.Lock()
			if len(t.frames[k]) < maxWireSamples {
				t.frames[k] = append(t.frames[k], append([]byte(nil), buf[:n]...))
			}
			t.mu.Unlock()
		}
	}
}

// close stops the reader and waits for it.
func (t *tap) close() {
	_ = t.conn.Close() // the reader exits on the closed socket; nothing was written
	<-t.done
}

// packets decodes the kept frames.
func (t *tap) packets() (map[wire.Kind][]*wire.Packet, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[wire.Kind][]*wire.Packet, len(t.frames))
	for k, frames := range t.frames {
		for _, b := range frames {
			p, err := wire.Unmarshal(b)
			if err != nil {
				return nil, fmt.Errorf("tap: undecodable %s frame: %w", k, err)
			}
			out[p.Kind] = append(out[p.Kind], p)
		}
	}
	return out, nil
}

// gauge reads one labelled gauge from a node's registry.
func gauge(n *transport.UDPNode, base, label, value string) float64 {
	return n.Metrics().Snapshot().Gauges[fmt.Sprintf("%s{%s=%q}", base, label, value)]
}

// counterSum sums every counter of a node's registry whose name starts with
// prefix (all label values).
func counterSum(n *transport.UDPNode, prefix string) uint64 {
	var sum uint64
	for name, v := range n.Metrics().Snapshot().Counters {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// converged reports whether every node hears all the others and the overlay
// has elected at least one member.
func converged(nodes []*transport.UDPNode) bool {
	member := false
	for _, n := range nodes {
		if int(gauge(n, obsv.MetricQueueDepth, "queue", string(obsv.QueueNeighbors))) != len(nodes)-1 {
			return false
		}
		member = member || n.InOverlay()
	}
	return member
}

// udpSchedule is the generated open-loop input of one session: who sends what
// and when.
type udpSchedule struct {
	due     []time.Duration
	sender  []wire.NodeID
	payload [][]byte
}

// makeSchedule draws the session's schedule from its seed: a fixed rate,
// senders round-robin, distinct random payloads.
func makeSchedule(seed int64, sh udpShape) udpSchedule {
	rng := rand.New(rand.NewSource(seed))
	count := int(sh.rate * sh.window.Seconds())
	s := udpSchedule{
		due:     make([]time.Duration, count),
		sender:  make([]wire.NodeID, count),
		payload: make([][]byte, count),
	}
	for i := 0; i < count; i++ {
		s.due[i] = time.Duration(float64(i) / sh.rate * float64(time.Second))
		s.sender[i] = wire.NodeID(i % sh.nodes)
		p := make([]byte, payloadSize)
		rng.Read(p)
		s.payload[i] = p
	}
	return s
}

// runUDPSession sets up a k-node loopback cluster, drives it open loop for
// one window, and tears it down. A traced session also wraps the signature
// scheme, times every Broadcast and delivery callback, and keeps the tap's
// frames.
func runUDPSession(seed int64, sh udpShape, traced bool) (res udpSession, err error) {
	begin := time.Now()
	ed, err := sig.NewEd25519(sh.nodes, seed)
	if err != nil {
		return res, err
	}
	tr := newTracer(maxKeptSpans)
	scheme := &udpScheme{Scheme: ed, tr: tr, signID: tr.id(spanSign), verifyID: tr.id(spanVerify)}
	var nodeScheme sig.Scheme = ed
	if traced {
		nodeScheme = scheme
	}
	broadcastID := tr.id("transport.broadcast")
	deliverID := tr.id("transport.deliver")
	sched := makeSchedule(seed, sh)
	led := newLedger(nil)
	var epoch atomic.Pointer[time.Time]
	now := func() time.Duration {
		if t0 := epoch.Load(); t0 != nil {
			return time.Since(*t0)
		}
		return 0
	}

	tp, err := newTap(traced)
	if err != nil {
		return res, err
	}
	defer tp.close()
	nodes := make([]*transport.UDPNode, 0, sh.nodes)
	defer func() {
		for _, n := range nodes {
			if cerr := n.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("udp: close node %d: %w", n.ID(), cerr)
			}
		}
	}()
	addrs := make([]string, 0, sh.nodes)
	for i := 0; i < sh.nodes; i++ {
		self := wire.NodeID(i)
		n, err := transport.NewUDPNode(core.DefaultConfig(), self, nodeScheme, "127.0.0.1:0",
			func(_ wire.NodeID, id wire.MsgID, payload []byte) {
				if !traced {
					led.accept(now(), self, id, payload)
					return
				}
				start := tr.now()
				led.accept(now(), self, id, payload)
				tr.leaf(deliverID, start, tr.now())
			})
		if err != nil {
			return res, err
		}
		nodes = append(nodes, n)
		addrs = append(addrs, n.Addr().String())
	}
	for i, n := range nodes {
		peers := []string{tp.conn.LocalAddr().String()}
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		if err := n.SetPeers(peers); err != nil {
			return res, err
		}
	}
	deadline := time.Now().Add(convergeTimeout)
	for !converged(nodes) {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("udp: the %d-node cluster did not converge within %s", sh.nodes, convergeTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}

	res.setupS = time.Since(begin).Seconds()
	statsBefore := sumStats(nodes)
	rxBefore, dropsBefore := registrySums(nodes)
	runtime.GC() // every window starts from a freshly collected heap
	t0 := time.Now()
	epoch.Store(&t0)
	c0 := cpuTime(clockProcess)
	tp.counting.Store(true)
	tr.setOn(traced)
	seqs := make([]wire.Seq, sh.nodes)
	for i, due := range sched.due {
		if wait := due - now(); wait > 0 {
			time.Sleep(wait)
		}
		late := now() - due
		if ms := float64(late) / float64(time.Millisecond); ms > res.latenessM {
			res.latenessM = ms
		}
		from := sched.sender[i]
		seqs[from]++
		want := wire.MsgID{Origin: from, Seq: seqs[from]}
		// Peers may accept before Broadcast returns, so the message is
		// registered under its predicted id first.
		led.expect(want, due, sched.payload[i])
		start := tr.now()
		got := nodes[from].Broadcast(sched.payload[i])
		if traced {
			tr.leaf(broadcastID, start, tr.now())
		}
		if got != want {
			return res, fmt.Errorf("udp: node %d assigned id %v, want %v", from, got, want)
		}
		res.injects++
	}
	eligible := func(wire.NodeID) int { return sh.nodes - 1 }
	last := sched.due[len(sched.due)-1]
	for now() < last+sh.drain && led.account(eligible).delivered < len(sched.due)*(sh.nodes-1) {
		time.Sleep(5 * time.Millisecond)
	}
	res.wall = time.Since(t0)
	res.cpu = cpuTime(clockProcess) - c0
	tp.counting.Store(false)
	tr.setOn(false)
	res.heapMB = liveHeapMB()
	res.ops = led.account(eligible)
	res.lat = led.latencies()
	res.tapBytes = tp.bytes.Load()
	res.badPayload = led.bad()
	if !traced {
		return res, nil
	}

	statsAfter := sumStats(nodes)
	rxAfter, dropsAfter := registrySums(nodes)
	frames, err := tp.packets()
	if err != nil {
		return res, err
	}
	secs := res.wall.Seconds()
	delivered := float64(res.ops.delivered)
	d := func(a, b uint64) float64 { return float64(b - a) }
	rx := d(rxBefore, rxAfter)
	accepted := d(statsBefore.Accepted, statsAfter.Accepted)
	storeMax := 0.0
	for _, n := range nodes {
		if v := gauge(n, obsv.MetricQueueDepth, "queue", string(obsv.QueueStore)); v > storeMax {
			storeMax = v
		}
	}
	out := map[string]float64{
		"sig.verify_ns":              tr.get(spanVerify).meanNS(),
		"sig.sign_ns":                tr.get(spanSign).meanNS(),
		"sig.verifies_per_delivery":  ratio(float64(scheme.verifies.Load()), delivered),
		"sig.signs_per_inject":       ratio(float64(scheme.signs.Load()), float64(res.injects)),
		"sig.verify_fail_share":      ratio(float64(scheme.verifyFails.Load()), float64(scheme.verifies.Load())),
		"transport.broadcast_ns":     tr.get("transport.broadcast").meanNS(),
		"transport.rx_per_delivery":  ratio(rx, delivered),
		"transport.ingress_drops":    d(dropsBefore, dropsAfter),
		"loadgen.lateness_ms_max":    res.latenessM,
		"core.dedup_skips_per_rx":    ratio(d(statsBefore.DedupSkips, statsAfter.DedupSkips), rx),
		"core.rate_limited_per_rx":   ratio(d(statsBefore.RateLimited, statsAfter.RateLimited), rx),
		"core.evictions_per_sim_s":   d(statsBefore.Evictions, statsAfter.Evictions) / secs,
		"core.duplicates_per_accept": ratio(d(statsBefore.Duplicates, statsAfter.Duplicates), accepted),
		"core.forwarded_per_accept":  ratio(d(statsBefore.Forwarded, statsAfter.Forwarded), accepted),
		"core.gossips_per_sim_s":     d(statsBefore.GossipsSent, statsAfter.GossipsSent) / secs,
		"core.requests_per_sim_s":    d(statsBefore.RequestsSent, statsAfter.RequestsSent) / secs,
		"core.store_occupancy_max":   storeMax / float64(core.DefaultConfig().MaxStore),
	}
	codec, err := timeCodec(frames)
	if err != nil {
		return res, err
	}
	for k, v := range codec {
		out[k] = v
	}
	res.layers = out
	res.spans = tr
	return res, nil
}

// sumStats adds up the nodes' protocol counters.
func sumStats(nodes []*transport.UDPNode) core.Stats {
	var s core.Stats
	for _, n := range nodes {
		addCoreStats(&s, n.Stats())
	}
	return s
}

// registrySums returns the frames the nodes received and the datagrams they
// shed at ingress, from their metrics registries.
func registrySums(nodes []*transport.UDPNode) (rx, drops uint64) {
	dropName := fmt.Sprintf("%s{event=%q}", obsv.MetricAdmissionTotal, string(obsv.AdmitIngressDrop))
	for _, n := range nodes {
		rx += counterSum(n, obsv.MetricRxTotal+"{")
		drops += n.Metrics().Snapshot().Counters[dropName]
	}
	return rx, drops
}
