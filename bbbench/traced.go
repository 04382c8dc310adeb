package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"bbcast/internal/byzantine"
	"bbcast/internal/core"
	"bbcast/internal/env"
	"bbcast/internal/fd"
	"bbcast/internal/invariant"
	"bbcast/internal/loadgen"
	"bbcast/internal/mac"
	"bbcast/internal/metrics"
	"bbcast/internal/mobility"
	"bbcast/internal/obsv"
	"bbcast/internal/overlay"
	"bbcast/internal/radio"
	"bbcast/internal/runner"
	"bbcast/internal/sig"
	"bbcast/internal/sim"
	"bbcast/internal/wire"
)

// Span names of the traced simulation. Timer spans are named by task once
// their callback has run; handler spans by packet kind.
const (
	spanStep      = "sim.step"
	spanObsv      = "obsv"
	spanMacSend   = "mac.send"
	spanBroadcast = "core.broadcast"
	spanVerify    = "sig.verify"
	spanSign      = "sig.sign"
	spanTimer     = "core.timer"
)

// timerTasks are the protocol's periodic and one-shot timer tasks, told
// apart by what the callback sent or sampled, or by its delay.
var timerTasks = []string{"gossip", "maintenance", "purge", "retry"}

// handledKinds are the packet kinds whose handlers get their own span.
// Overlay state only travels piggybacked on gossip under DefaultConfig, and
// sync frames only follow an amnesiac rejoin, which no workload has.
var handledKinds = []wire.Kind{wire.KindData, wire.KindGossip, wire.KindRequest, wire.KindFindMissing}

// maxWireSamples bounds the frames kept per kind for timing the codec.
const maxWireSamples = 1000

// Flags a timer callback leaves behind for classification.
const (
	sentGossip = 1 << iota
	sampledQueues
)

// simTrace is the traced simulation: runner.Run's composition rebuilt from
// the layers' exported constructors, with a span around every call into a
// layer.
type simTrace struct {
	sc  runner.Scenario
	sh  simShape
	tr  *tracer
	eng *sim.Engine

	ids struct {
		step, obsv, macSend, broadcast, verify, sign, timer int
		task                                                map[string]int
		handle                                              map[wire.Kind]int
	}

	// timerFlags collects what the running timer callback did.
	timerFlags int

	// Window bookkeeping, counted only while the tracer is on.
	obsvCalls, rx, remoteAccepts, recovered int
	storeMax                                int
	signs, verifies, verifyFails            int
	// injects counts the window's injections, injected the whole run's.
	injects, injected int

	enqueued  map[*wire.Packet]time.Duration
	waitMS    []float64
	wireFrame map[wire.Kind][]*wire.Packet
}

func (h *simTrace) onWindow() bool { return h.tr.on }

// tracedScheme wraps the signature scheme with spans and counts.
type tracedScheme struct {
	sig.Scheme
	h *simTrace
}

func (s tracedScheme) Sign(id uint32, msg []byte) []byte {
	h := s.h
	if !h.onWindow() {
		return s.Scheme.Sign(id, msg)
	}
	h.signs++
	h.tr.begin(h.ids.sign)
	out := s.Scheme.Sign(id, msg)
	h.tr.end()
	return out
}

func (s tracedScheme) Verify(id uint32, msg, tag []byte) bool {
	h := s.h
	if !h.onWindow() {
		return s.Scheme.Verify(id, msg, tag)
	}
	h.verifies++
	h.tr.begin(h.ids.verify)
	ok := s.Scheme.Verify(id, msg, tag)
	h.tr.end()
	if !ok {
		h.verifyFails++
	}
	return ok
}

// tracedClock wraps the simulation clock so every timer callback the
// protocol arms runs inside a span named after its task.
type tracedClock struct {
	env.SimClock
	h *simTrace
}

func (c tracedClock) After(d time.Duration, fn func()) func() {
	h := c.h
	return c.SimClock.After(d, func() {
		if !h.onWindow() {
			fn()
			return
		}
		h.tr.begin(h.ids.timer)
		saved := h.timerFlags
		h.timerFlags = 0
		fn()
		task := h.classify(d, h.timerFlags)
		h.timerFlags = saved
		h.tr.endAs(h.ids.task[task])
	})
}

// classify names a timer task: gossip ticks send gossip, maintenance ticks
// sample the queues, the purge tick is the only jitterless PurgeInterval
// timer, and the rest are request and retransmission timers.
func (h *simTrace) classify(d time.Duration, flags int) string {
	switch {
	case flags&sentGossip != 0:
		return "gossip"
	case flags&sampledQueues != 0:
		return "maintenance"
	case d == h.sc.Core.PurgeInterval:
		return "purge"
	default:
		return "retry"
	}
}

// tracedObs spans the observer fan-out and counts what the window saw.
type tracedObs struct {
	inner obsv.Observer
	h     *simTrace
}

func (o tracedObs) begin() bool {
	if !o.h.onWindow() {
		return false
	}
	o.h.obsvCalls++
	o.h.tr.begin(o.h.ids.obsv)
	return true
}

func (o tracedObs) end(on bool) {
	if on {
		o.h.tr.end()
	}
}

func (o tracedObs) OnPacketTx(at time.Duration, node wire.NodeID, kind wire.Kind, id wire.MsgID, meta wire.Meta) {
	on := o.begin()
	o.inner.OnPacketTx(at, node, kind, id, meta)
	o.end(on)
}

func (o tracedObs) OnPacketRx(at time.Duration, node wire.NodeID, kind wire.Kind, id wire.MsgID, meta wire.Meta) {
	on := o.begin()
	o.inner.OnPacketRx(at, node, kind, id, meta)
	o.end(on)
	if on {
		o.h.rx++
	}
}

func (o tracedObs) OnInject(at time.Duration, node wire.NodeID, id wire.MsgID) {
	on := o.begin()
	o.inner.OnInject(at, node, id)
	o.end(on)
}

func (o tracedObs) OnAccept(at time.Duration, node wire.NodeID, id wire.MsgID, payload []byte, meta wire.Meta) {
	on := o.begin()
	o.inner.OnAccept(at, node, id, payload, meta)
	o.end(on)
	if on && node != id.Origin {
		o.h.remoteAccepts++
		if meta.Recovered {
			o.h.recovered++
		}
	}
}

func (o tracedObs) OnForwardSuppressed(at time.Duration, node wire.NodeID, id wire.MsgID, meta wire.Meta) {
	on := o.begin()
	o.inner.OnForwardSuppressed(at, node, id, meta)
	o.end(on)
}

func (o tracedObs) OnRoleChange(at time.Duration, node wire.NodeID, role overlay.Role) {
	on := o.begin()
	o.inner.OnRoleChange(at, node, role)
	o.end(on)
}

func (o tracedObs) OnSuspicion(at time.Duration, node, subject wire.NodeID, d obsv.Detector, raised bool) {
	on := o.begin()
	o.inner.OnSuspicion(at, node, subject, d, raised)
	o.end(on)
}

func (o tracedObs) OnSigVerify(at time.Duration, node wire.NodeID, ok bool, took time.Duration) {
	on := o.begin()
	o.inner.OnSigVerify(at, node, ok, took)
	o.end(on)
}

func (o tracedObs) OnQueueDepth(at time.Duration, node wire.NodeID, q obsv.Queue, depth int) {
	on := o.begin()
	o.inner.OnQueueDepth(at, node, q, depth)
	o.end(on)
	if on {
		o.h.timerFlags |= sampledQueues
		if q == obsv.QueueStore && depth > o.h.storeMax {
			o.h.storeMax = depth
		}
	}
}

func (o tracedObs) OnAdmission(at time.Duration, node wire.NodeID, e obsv.AdmissionEvent) {
	on := o.begin()
	o.inner.OnAdmission(at, node, e)
	o.end(on)
}

func (o tracedObs) OnAdaptation(at time.Duration, node wire.NodeID, t obsv.AdaptiveTimer, old, new time.Duration) {
	on := o.begin()
	o.inner.OnAdaptation(at, node, t, old, new)
	o.end(on)
}

func (o tracedObs) OnRetry(at time.Duration, node wire.NodeID, id wire.MsgID, attempt int, abandoned bool) {
	on := o.begin()
	o.inner.OnRetry(at, node, id, attempt, abandoned)
	o.end(on)
}

func (o tracedObs) OnSync(at time.Duration, node, peer wire.NodeID, e obsv.SyncEvent, entries, bytes int) {
	on := o.begin()
	o.inner.OnSync(at, node, peer, e, entries, bytes)
	o.end(on)
}

func (o tracedObs) OnRejoin(at time.Duration, node wire.NodeID, restored int) {
	on := o.begin()
	o.inner.OnRejoin(at, node, restored)
	o.end(on)
}

// macSend hands a frame to the node's MAC inside a span, remembering when it
// was queued so the transmit hook can measure its queue wait.
func (h *simTrace) macSend(m *mac.MAC, pkt *wire.Packet) {
	if !h.onWindow() {
		m.Send(pkt)
		return
	}
	if pkt.Kind == wire.KindGossip {
		h.timerFlags |= sentGossip
	}
	if s := h.wireFrame[pkt.Kind]; len(s) < maxWireSamples {
		h.wireFrame[pkt.Kind] = append(s, pkt)
	}
	h.tr.begin(h.ids.macSend)
	dropped := m.Stats().Dropped
	h.enqueued[pkt] = h.eng.Now()
	m.Send(pkt)
	if m.Stats().Dropped != dropped {
		delete(h.enqueued, pkt)
	}
	h.tr.end()
}

// layerCounts are the cumulative lower-layer counters sampled at the window's
// edges.
type layerCounts struct {
	radio radio.Stats
	mac   mac.Stats
	core  core.Stats
}

func sampleCounts(medium *radio.Medium, macs []*mac.MAC, protos []*core.Protocol) layerCounts {
	c := layerCounts{radio: medium.Stats()}
	for _, m := range macs {
		s := m.Stats()
		c.mac.Sent += s.Sent
		c.mac.Deferrals += s.Deferrals
		c.mac.Dropped += s.Dropped
	}
	for _, p := range protos {
		addCoreStats(&c.core, p.Stats())
	}
	return c
}

// addCoreStats adds the protocol counters the per-layer metrics read.
func addCoreStats(sum *core.Stats, s core.Stats) {
	sum.Accepted += s.Accepted
	sum.Duplicates += s.Duplicates
	sum.Forwarded += s.Forwarded
	sum.GossipsSent += s.GossipsSent
	sum.RequestsSent += s.RequestsSent
	sum.RateLimited += s.RateLimited
	sum.DedupSkips += s.DedupSkips
	sum.Evictions += s.Evictions
}

// simTraced is the outcome of a traced simulation.
type simTraced struct {
	exact      exactCounters
	hostMSPerS float64
	layers     map[string]float64
	violations []invariant.Violation
	badPayload int
	ops        ops
	spans      *tracer
}

// traceSim runs sc like runner.Run does, from the layers' constructors, with
// spans around every layer call inside the measured window. It supports what
// the benchmark's scenarios use: a static grid, the paper's protocol, HMAC
// signatures, spread adversaries, and open-loop workloads.
func traceSim(sc runner.Scenario, sh simShape, maxKept int) (simTraced, error) {
	if sc.Mobility != runner.MobGrid || sc.Protocol != runner.ProtoByzCast || sc.UseEd25519 ||
		sc.FaultPlan != nil || sc.Placement != runner.PlaceSpread ||
		(sc.LoadGen != nil && sc.LoadGen.Arrival == loadgen.ClosedLoop) {
		return simTraced{}, fmt.Errorf("%s: the traced harness does not compose this scenario", sc.Name)
	}
	led := newLedger(simPayload())
	sc.Observer = &simObserver{sh: sh, led: led, onMark: func(int) {}}

	h := &simTrace{
		sc:        sc,
		sh:        sh,
		tr:        newTracer(maxKept),
		enqueued:  make(map[*wire.Packet]time.Duration),
		wireFrame: make(map[wire.Kind][]*wire.Packet),
	}
	h.ids.step = h.tr.id(spanStep)
	h.ids.obsv = h.tr.id(spanObsv)
	h.ids.macSend = h.tr.id(spanMacSend)
	h.ids.broadcast = h.tr.id(spanBroadcast)
	h.ids.verify = h.tr.id(spanVerify)
	h.ids.sign = h.tr.id(spanSign)
	h.ids.timer = h.tr.id(spanTimer)
	h.ids.task = make(map[string]int, len(timerTasks))
	for _, task := range timerTasks {
		h.ids.task[task] = h.tr.id("core.timer." + task)
	}
	h.ids.handle = make(map[wire.Kind]int, len(handledKinds))
	for _, k := range handledKinds {
		h.ids.handle[k] = h.tr.id("core.handle." + k.String())
	}

	eng := sim.New(sc.Seed)
	h.eng = eng
	sc.Radio.PosUpdate = 0 // static grid, as runner.Run sets it
	medium := radio.New(eng, mobility.NewGridStatic(sc.Area, sc.N, 0.35, sc.Seed), sc.N, sc.Radio)
	defer medium.Close()
	scheme := tracedScheme{Scheme: sig.NewHMAC(sc.N, sc.Seed), h: h}
	collector := metrics.NewCollector()

	// Adversaries sign with the bare scheme: their signing is not the
	// protocol's work.
	behaviors, err := spreadAdversaries(sc, eng, scheme.Scheme)
	if err != nil {
		return simTraced{}, err
	}
	correct := make([]bool, sc.N)
	numCorrect := 0
	for i := range correct {
		_, adv := behaviors[wire.NodeID(i)]
		correct[i] = !adv
		if correct[i] {
			numCorrect++
		}
	}
	protos := make([]*core.Protocol, sc.N)
	macs := make([]*mac.MAC, sc.N)
	chk := newChecker(sc, eng, medium, protos, correct)

	// The fan-out carries every event the protocol emits. The transmit and
	// inject events runner.Run emits itself are the one thing this harness
	// does not replay into it (obsvonce reserves their emission to runner.Run
	// and the live transport): tx events only feed the collector's per-kind
	// counts, and the harness hands injections straight to the checker and
	// the ledger.
	obs := tracedObs{inner: obsv.Multi(collector, invariant.AsObserver(chk), sc.Observer), h: h}
	advObs := obsv.SkipAccepts(obs)
	medium.OnTransmit = func(_ wire.NodeID, pkt *wire.Packet) {
		if at, ok := h.enqueued[pkt]; ok {
			h.waitMS = append(h.waitMS, float64(eng.Now()-at)/float64(time.Millisecond))
			delete(h.enqueued, pkt)
		}
	}
	clock := tracedClock{SimClock: env.SimClock{Eng: eng}, h: h}

	for i := 0; i < sc.N; i++ {
		id := wire.NodeID(i)
		macs[i] = mac.New(eng, medium, id, eng.SubRand(uint64(i)), sc.MAC)
		behavior := byzantine.NewSwitchable(behaviorFor(behaviors, id))
		m := macs[i]
		deps := core.Deps{
			ID:    id,
			Clock: clock,
			Send: func(pkt *wire.Packet) {
				if out := behavior.FilterSend(pkt); out != nil {
					h.macSend(m, out)
				}
			},
			Scheme: scheme,
			Rand:   eng.SubRand(uint64(i) + 1<<32),
			Obs:    advObs,
		}
		if correct[i] {
			deps.Obs = obs
			deps.Deliver = func(wire.NodeID, wire.MsgID, []byte) {}
		}
		p := core.New(sc.Core, deps)
		protos[i] = p
		medium.Attach(id, func(pkt *wire.Packet) {
			if span, ok := h.ids.handle[pkt.Kind]; ok && h.onWindow() {
				h.tr.begin(span)
				defer h.tr.end()
			}
			behavior.OnReceive(pkt)
			p.HandlePacket(pkt)
		})
		if _, adv := behaviors[id]; adv {
			eng.Every(byzantine.TickInterval, func() { behavior.Tick(m.Send) })
		}
	}
	h.scheduleWorkload(protos, correct, func(id wire.MsgID, origin wire.NodeID) {
		at := eng.Now()
		if at >= sh.warm && at < sh.end() {
			led.expect(id, at, nil)
		}
		if chk != nil {
			chk.OnInject(id, origin, at)
		}
	})

	// Warm-up untraced, the window traced step by step, the drain untraced.
	eng.Run(sh.warm)
	before := sampleCounts(medium, macs, protos)
	stop := false
	eng.At(sh.end(), func() { stop = true })
	h.tr.setOn(true)
	steps := 0
	// Timed like timeSim: the simulation thread's CPU time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := cpuTime(clockThread)
	for !stop {
		h.tr.begin(h.ids.step)
		ok := eng.Step()
		h.tr.end()
		if !ok {
			break
		}
		steps++
	}
	cpu := cpuTime(clockThread) - cpu0
	h.tr.setOn(false)
	after := sampleCounts(medium, macs, protos)
	eng.Run(sc.Duration)
	if chk != nil {
		chk.Finish(eng.Now())
	}

	end := sampleCounts(medium, macs, protos)
	o := led.account(func(wire.NodeID) int { return numCorrect - 1 })
	out := simTraced{
		exact: exactCounters{
			// The harness's own stop event is the one runner.Run lacks.
			Events:     eng.Processed() - 1,
			Injected:   h.injected,
			Accepted:   end.core.Accepted,
			Tx:         end.radio.Transmissions,
			Deliveries: end.radio.Deliveries,
			BytesOnAir: end.radio.BytesOnAir,
			Attempted:  o.attempted,
			Failed:     o.failed,
		},
		hostMSPerS: float64(cpu) / float64(time.Millisecond) / sh.window.Seconds(),
		badPayload: led.bad(),
		ops:        o,
		spans:      h.tr,
	}
	if chk != nil {
		out.violations = chk.Violations()
	}
	for _, p := range protos {
		p.Stop()
	}
	for _, m := range macs {
		m.Stop()
	}
	out.layers, err = h.layers(steps, before, after)
	return out, err
}

// behaviorFor returns node id's behaviour (correct unless adversarial).
func behaviorFor(m map[wire.NodeID]byzantine.Behavior, id wire.NodeID) byzantine.Behavior {
	if b, ok := m[id]; ok {
		return b
	}
	return byzantine.Correct{}
}

// spreadAdversaries places sc's adversaries the way runner.Run does with
// PlaceSpread: from the top id down, stepping across the id space.
func spreadAdversaries(sc runner.Scenario, eng *sim.Engine, scheme sig.Scheme) (map[wire.NodeID]byzantine.Behavior, error) {
	out := make(map[wire.NodeID]byzantine.Behavior)
	total := 0
	for _, a := range sc.Adversaries {
		total += a.Count
	}
	if total == 0 {
		return out, nil
	}
	step := sc.N / total
	if step < 1 {
		step = 1
	}
	next := sc.N - 1
	pick := func() wire.NodeID {
		for next >= 0 {
			id := wire.NodeID(next)
			next -= step
			if _, taken := out[id]; !taken {
				return id
			}
		}
		for i := sc.N - 1; i >= 0; i-- {
			if _, taken := out[wire.NodeID(i)]; !taken {
				return wire.NodeID(i)
			}
		}
		return wire.NoNode
	}
	for _, a := range sc.Adversaries {
		for k := 0; k < a.Count; k++ {
			id := pick()
			if id == wire.NoNode {
				break
			}
			rng := eng.SubRand(uint64(id) + 2<<32)
			switch a.Kind {
			case runner.AdvFlooder:
				self := id
				out[id] = &byzantine.Flooder{Self: id, Sign: func(data []byte) []byte { return scheme.Sign(uint32(self), data) }}
			case runner.AdvReplayer:
				out[id] = &byzantine.Replayer{Self: id, Rng: rng}
			case runner.AdvForgeSpammer:
				out[id] = &byzantine.ForgeSpammer{Self: id, Rng: rng}
			default:
				return nil, fmt.Errorf("%s: the traced harness does not compose adversary kind %d", sc.Name, a.Kind)
			}
		}
	}
	return out, nil
}

// newChecker builds the invariant checker the way runner.Run configures it
// for the paper's protocol.
func newChecker(sc runner.Scenario, eng *sim.Engine, medium *radio.Medium, protos []*core.Protocol, correct []bool) *invariant.Checker {
	cfg := sc.Invariants
	if !sc.Core.EnableRecovery {
		cfg.Validity = false
	}
	if !sc.Core.EnableFDs {
		cfg.Detectors = false
	}
	if cfg.RedeliveryGrace > 0 && sc.Core.StoreQuiescence > cfg.RedeliveryGrace {
		cfg.RedeliveryGrace = sc.Core.StoreQuiescence
	}
	if !cfg.Enabled() {
		return nil
	}
	bounds := make(map[string]int, 5)
	for queue, cap := range map[obsv.Queue]int{
		obsv.QueueStore:     sc.Core.MaxStore,
		obsv.QueueMissing:   sc.Core.MaxMissing,
		obsv.QueueNeighbors: sc.Core.MaxNeighbors,
		obsv.QueueReqSeen:   sc.Core.MaxReqSeen,
		obsv.QueueLinkQual:  sc.Core.MaxNeighbors,
	} {
		if cap > 0 {
			bounds[string(queue)] = cap
		}
	}
	gMin, gMax := sc.Core.GossipBounds()
	mMin, mMax := sc.Core.MuteTimeoutBounds()
	return invariant.New(cfg, eng.Now, invariant.Probes{
		N:      sc.N,
		Bounds: bounds,
		TimerRanges: map[string][2]time.Duration{
			string(obsv.TimerGossip): {gMin, gMax},
			string(obsv.TimerMute):   {mMin, mMax},
		},
		Correct:           func(id wire.NodeID) bool { return int(id) < len(correct) && correct[id] },
		Up:                func(id wire.NodeID) bool { return !medium.IsDown(id) },
		Neighbors:         medium.Neighbors,
		ReliableNeighbors: medium.SolidNeighbors,
		OverlayActive: func(id wire.NodeID) bool {
			p := protos[id]
			return p != nil && p.InOverlay()
		},
		Suspects: func(observer, subject wire.NodeID) bool {
			p := protos[observer]
			return p != nil && p.Trust().Level(subject) == fd.Untrusted
		},
	})
}

// scheduleWorkload injects the scenario's open-loop workload exactly as
// runner.Run schedules it, with a span around each Broadcast.
func (h *simTrace) scheduleWorkload(protos []*core.Protocol, correct []bool, injected func(wire.MsgID, wire.NodeID)) {
	sc, eng := h.sc, h.eng
	senders := func(want int) []int {
		var s []int
		for i := 0; i < len(protos) && len(s) < want; i++ {
			if correct[i] {
				s = append(s, i)
			}
		}
		return s
	}
	broadcast := func(sender int, payload []byte) {
		h.tr.begin(h.ids.broadcast)
		id := protos[sender].Broadcast(payload)
		h.tr.end()
		h.injected++
		if h.onWindow() {
			h.injects++
		}
		injected(id, wire.NodeID(sender))
	}
	if cfg := sc.LoadGen; cfg != nil {
		from := senders(cfg.Senders)
		if len(from) == 0 {
			return
		}
		payloads := make([][]byte, len(cfg.PayloadSizes))
		for i, sz := range cfg.PayloadSizes {
			p := make([]byte, sz)
			for j := range p {
				p[j] = byte(j)
			}
			payloads[i] = p
		}
		k := 0
		for i, at := range cfg.Times(eng.SubRand(0x10adc3)) {
			slot := i
			eng.At(at, func() {
				p := payloads[k%len(payloads)]
				k++
				broadcast(from[slot%len(from)], p)
			})
		}
		return
	}
	w := sc.Workload
	from := senders(w.Senders)
	if w.Rate <= 0 || len(from) == 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / w.Rate)
	payload := simPayload()
	payload = payload[:w.PayloadSize]
	rng := eng.SubRand(0xb0ad)
	k := 0
	for at := w.Start; at < w.End; {
		sender := from[k%len(from)]
		k++
		eng.At(at, func() { broadcast(sender, payload) })
		if w.Poisson {
			at += time.Duration(rng.ExpFloat64() * float64(interval))
		} else {
			at += interval
		}
	}
}

// layers turns the window's spans and counter deltas into per-layer metrics.
func (h *simTrace) layers(steps int, before, after layerCounts) (map[string]float64, error) {
	secs := h.sh.window.Seconds()
	tr := h.tr
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	d := func(a, b uint64) float64 { return float64(b - a) }
	out := map[string]float64{}

	stepStats := tr.get(spanStep)
	out["sim.events_per_sim_s"] = float64(steps) / secs
	out["sim.self_ns_per_event"] = ratio(float64(stepStats.self), float64(steps))

	tx := d(before.radio.Transmissions, after.radio.Transmissions)
	out["radio.tx_per_sim_s"] = tx / secs
	out["radio.rx_per_tx"] = ratio(d(before.radio.Deliveries, after.radio.Deliveries), tx)
	out["radio.collisions_per_tx"] = ratio(d(before.radio.Collisions, after.radio.Collisions), tx)

	out["mac.deferrals_per_tx"] = ratio(d(before.mac.Deferrals, after.mac.Deferrals), d(before.mac.Sent, after.mac.Sent))
	out["mac.drops"] = d(before.mac.Dropped, after.mac.Dropped)
	sort.Float64s(h.waitMS)
	out["mac.queue_wait_ms_p50"], _ = percentile(h.waitMS, 0.50)
	out["mac.queue_wait_ms_p99"], _ = percentile(h.waitMS, 0.99)

	for _, k := range handledKinds {
		out["core.handle_ns."+k.String()] = tr.get("core.handle." + k.String()).meanNS()
	}
	for _, task := range timerTasks {
		out["core.timer_ms_per_sim_s."+task] = ms(tr.get("core.timer."+task).total) / secs
	}
	out["core.broadcast_ns"] = tr.get(spanBroadcast).meanNS()
	rx := float64(h.rx)
	accepted := d(before.core.Accepted, after.core.Accepted)
	out["core.dedup_skips_per_rx"] = ratio(d(before.core.DedupSkips, after.core.DedupSkips), rx)
	out["core.rate_limited_per_rx"] = ratio(d(before.core.RateLimited, after.core.RateLimited), rx)
	out["core.evictions_per_sim_s"] = d(before.core.Evictions, after.core.Evictions) / secs
	out["core.duplicates_per_accept"] = ratio(d(before.core.Duplicates, after.core.Duplicates), accepted)
	out["core.forwarded_per_accept"] = ratio(d(before.core.Forwarded, after.core.Forwarded), accepted)
	out["core.gossips_per_sim_s"] = d(before.core.GossipsSent, after.core.GossipsSent) / secs
	out["core.requests_per_sim_s"] = d(before.core.RequestsSent, after.core.RequestsSent) / secs
	out["core.recovery_share"] = ratio(float64(h.recovered), float64(h.remoteAccepts))
	out["core.store_occupancy_max"] = ratio(float64(h.storeMax), float64(h.sc.Core.MaxStore))

	out["sig.verify_ns"] = tr.get(spanVerify).meanNS()
	out["sig.sign_ns"] = tr.get(spanSign).meanNS()
	out["sig.verifies_per_delivery"] = ratio(float64(h.verifies), float64(h.remoteAccepts))
	out["sig.signs_per_inject"] = ratio(float64(h.signs), float64(h.injects))
	out["sig.verify_fail_share"] = ratio(float64(h.verifyFails), float64(h.verifies))

	out["obsv.calls_per_event"] = ratio(float64(h.obsvCalls), float64(steps))
	out["obsv.ms_per_sim_s"] = ms(tr.get(spanObsv).total) / secs

	codec, err := timeCodec(h.wireFrame)
	for k, v := range codec {
		out[k] = v
	}
	return out, err
}
