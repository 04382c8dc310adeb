//bbvet:wallclock benchmark harness: times set-up with the wall clock around deterministic simulations, from outside

package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"bbcast/internal/invariant"
	"bbcast/internal/loadgen"
	"bbcast/internal/obsv"
	"bbcast/internal/runner"
	"bbcast/internal/wire"
)

// simShape sizes a simulated workload: the warm-up before the measured
// window, the window itself, and the drain after it during which window
// messages may still complete.
type simShape struct {
	warm, window, drain time.Duration
}

func (s simShape) end() time.Duration { return s.warm + s.window }

// payloadSize is the application payload of every simulated workload.
const payloadSize = 256

// simPayload is the payload the runner gives every injected message (byte i
// of the payload is i mod 256).
func simPayload() []byte {
	p := make([]byte, payloadSize)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

// steadyScenario is the paper's operating point: DefaultScenario (n=75 on a
// jittered grid, 5 senders at 1 msg/s, HMAC, every invariant), injecting from
// 15 s until the window closes.
func steadyScenario(seed int64, sh simShape) runner.Scenario {
	sc := runner.DefaultScenario()
	sc.Name = "sim-steady"
	sc.Seed = seed
	sc.Workload.End = sh.end()
	sc.Duration = sh.end() + sh.drain
	return sc
}

// kneeScenario is E16's shape at its knee: n=50, 25 Poisson senders at
// 16 msg/s network-wide. Safety invariants stay on; validity is off because
// saturation loses messages by design (delivery_ratio reads liveness).
func kneeScenario(seed int64, sh simShape) runner.Scenario {
	sc := runner.DefaultScenario()
	sc.Name = "sim-knee"
	sc.Seed = seed
	sc.N = 50
	inv := invariant.DefaultConfig()
	sc.Invariants = invariant.Config{
		Agreement:       true,
		AtMostOnce:      true,
		StateBounds:     true,
		TimerBounds:     true,
		RedeliveryGrace: inv.RedeliveryGrace,
	}
	start := 15 * time.Second
	sc.Workload = runner.Workload{}
	sc.LoadGen = &loadgen.Config{
		Senders:      25,
		PayloadSizes: []int{payloadSize},
		Arrival:      loadgen.Poisson,
		Start:        start,
		Steps:        []loadgen.Step{{Rate: 16, Duration: sh.end() - start}},
	}
	sc.Duration = sh.end() + sh.drain
	return sc
}

// smallStore is the message-store cap of a memory-constrained device. The cap
// path only runs at the cap, and at the default cap (4096) no workload
// reaches it.
const smallStore = 1024

// kneeStore is the store cap of sim-knee-cap's devices: a sixth of what the
// knee's store would hold (~1.5k), so the cap path runs on every insertion
// without an adversary in sight. The package comment says why it is not
// smallStore.
const kneeStore = 256

// kneeCapScenario is sim-knee on devices whose store holds kneeStore
// entries.
func kneeCapScenario(seed int64, sh simShape) runner.Scenario {
	sc := kneeScenario(seed, sh)
	sc.Name = "sim-knee-cap"
	sc.Core.MaxStore = kneeStore
	return sc
}

// spamScenario is E14's adversary mix at n=75 (2 flooders, 1 replayer, 1
// forge-spammer) against the default workload, with the store capped at
// smallStore: the flood keeps it full.
func spamScenario(seed int64, sh simShape) runner.Scenario {
	sc := steadyScenario(seed, sh)
	sc.Name = "sim-spam"
	sc.Core.MaxStore = smallStore
	sc.Adversaries = []runner.Adversaries{
		{Kind: runner.AdvFlooder, Count: 2},
		{Kind: runner.AdvReplayer, Count: 1},
		{Kind: runner.AdvForgeSpammer, Count: 1},
	}
	return sc
}

// segment is the length of the measurement segments a window is cut into.
// Host times are reported as medians over segments, so a burst of
// contention from the shared host's other tenants moves a few segments and
// not the figure.
const segment = 10 * time.Second

// simObserver is the benchmark's own Scenario.Observer: it marks the measured
// window's segment boundaries from the events' simulated timestamps and
// feeds the ledger.
type simObserver struct {
	obsv.Nop
	sh  simShape
	led *ledger

	// onMark fires once for each boundary warm + k*segment, k = 0 (the
	// window's start) to window/segment (its end), on the first event at or
	// after it.
	onMark func(k int)
	next   int

	// windowAccepts counts remote acceptances of any message inside the
	// window (the denominator of CPU per delivery).
	windowAccepts int
}

func (o *simObserver) segments() int { return int(o.sh.window / segment) }

func (o *simObserver) ended() bool { return o.next > o.segments() }

func (o *simObserver) mark(at time.Duration) {
	for !o.ended() && at >= o.sh.warm+time.Duration(o.next)*segment {
		o.onMark(o.next)
		o.next++
	}
}

func (o *simObserver) OnPacketTx(at time.Duration, _ wire.NodeID, _ wire.Kind, _ wire.MsgID, _ wire.Meta) {
	o.mark(at)
}

func (o *simObserver) OnInject(at time.Duration, _ wire.NodeID, id wire.MsgID) {
	o.mark(at)
	if at >= o.sh.warm && at < o.sh.end() {
		o.led.expect(id, at, nil)
	}
}

func (o *simObserver) OnAccept(at time.Duration, node wire.NodeID, id wire.MsgID, payload []byte, _ wire.Meta) {
	o.mark(at)
	if node != id.Origin && at >= o.sh.warm && at < o.sh.end() {
		o.windowAccepts++
	}
	o.led.accept(at, node, id, payload)
}

// exactCounters are the per-seed counts a simulation must reproduce exactly
// on every repetition, and the traced harness must reproduce too.
type exactCounters struct {
	Events     uint64
	Injected   int
	Accepted   uint64
	Tx         uint64
	Deliveries uint64
	BytesOnAir uint64
	Attempted  int
	Failed     int
}

// simRep is one timed repetition of a simulated workload.
type simRep struct {
	setupS float64
	// hostMSPerS and cpuUSPerDel cover the whole window. hostSeg holds the
	// simulation thread's and procSeg the process's CPU ms per simulated
	// second in each of its segments.
	hostMSPerS  float64
	cpuUSPerDel float64
	hostSeg     []float64
	procSeg     []float64
	// windowAccepts counts remote acceptances inside the window.
	windowAccepts int
	heapMB        float64
	exact         exactCounters
	ops           ops
	lat           []float64
	result        runner.Result
	badPayload    int
}

// CPU-time clocks of clock_gettime(2): the whole process's, or the calling
// OS thread's. Unlike getrusage, whose times come from scheduler-tick
// sampling, they count every nanosecond the kernel ran the thread.
const (
	clockProcess = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThread  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime reads one of the CPU-time clocks.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeSim runs sc once through runner.Run and measures its window.
func timeSim(sc runner.Scenario, sh simShape) (simRep, error) {
	if sh.window <= 0 || sh.window%segment != 0 {
		return simRep{}, fmt.Errorf("%s: window %s is not a whole number of %s segments", sc.Name, sh.window, segment)
	}
	led := newLedger(simPayload())
	var rep simRep
	var setupEnd time.Time
	type sample struct {
		thread, process time.Duration
		accepts         int
	}
	obs := &simObserver{sh: sh, led: led}
	marks := make([]sample, obs.segments()+1)
	obs.onMark = func(k int) {
		if k == 0 {
			setupEnd = time.Now()
			runtime.GC() // every window starts from a freshly collected heap
		}
		marks[k] = sample{cpuTime(clockThread), cpuTime(clockProcess), obs.windowAccepts}
		if k == len(marks)-1 {
			rep.heapMB = liveHeapMB()
		}
	}
	sc.Observer = obs
	runtime.GC()
	// The simulation runs on this goroutine. Pinned to one OS thread, its
	// window is timed by that thread's CPU time: wall time would also count
	// whatever the host's other tenants took from it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	begin := time.Now()
	res, err := runner.Run(sc)
	if err != nil {
		return rep, err
	}
	if !obs.ended() {
		return rep, fmt.Errorf("%s: the run ended before its measured window closed", sc.Name)
	}
	msPerS := func(a, b, d time.Duration) float64 {
		return float64(b-a) / float64(time.Millisecond) / d.Seconds()
	}
	for k := 1; k < len(marks); k++ {
		rep.hostSeg = append(rep.hostSeg, msPerS(marks[k-1].thread, marks[k].thread, segment))
		rep.procSeg = append(rep.procSeg, msPerS(marks[k-1].process, marks[k].process, segment))
	}
	first, last := marks[0], marks[len(marks)-1]
	rep.hostMSPerS = msPerS(first.thread, last.thread, sh.window)
	rep.windowAccepts = last.accepts - first.accepts
	rep.cpuUSPerDel = ratio(float64(last.process-first.process)/float64(time.Microsecond), float64(rep.windowAccepts))
	rep.result = res
	rep.setupS = setupEnd.Sub(begin).Seconds()
	// Every correct node but the (correct) originator should accept.
	rep.ops = led.account(func(wire.NodeID) int { return res.NumCorrect - 1 })
	rep.lat = led.latencies()
	rep.badPayload = led.bad()
	rep.exact = exactCounters{
		Events:     res.Events,
		Injected:   res.Injected,
		Accepted:   res.Node.Accepted,
		Tx:         res.Phys.Transmissions,
		Deliveries: res.Phys.Deliveries,
		BytesOnAir: res.Phys.BytesOnAir,
		Attempted:  rep.ops.attempted,
		Failed:     rep.ops.failed,
	}
	return rep, nil
}
