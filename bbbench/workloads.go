package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bbcast/internal/invariant"
	"bbcast/internal/runner"
)

// outcome is what one invocation measured: metric values by name, the op
// accounting, and every output check that failed.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	// notes are per-topology or per-session progress lines for humans.
	notes []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one input mix of the benchmark.
type workload struct {
	name string
	// timed measures the end-to-end metrics; traced the per-layer ones.
	timed  func(seed int64, seconds int) (outcome, error)
	traced func(seed int64, spansDir string) (outcome, error)
}

// simWorkload describes a simulated workload: its scenario, its shape, and
// how many topologies one run pools per second of run time.
type simWorkload struct {
	name     string
	scenario func(seed int64, sh simShape) runner.Scenario
	shape    simShape
	// perTopologyS sizes a run: a run of s seconds pools
	// round(s/perTopologyS) topologies (at least one), so the work is a
	// function of the run length alone, never of the host's speed.
	perTopologyS float64
}

// topologies is how many distinct topologies a run of the given length
// pools.
func (w simWorkload) topologies(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/w.perTopologyS)))
}

// maxKeptSpans bounds the spans a traced run keeps whole for writing out.
const maxKeptSpans = 50000

var simWorkloads = []simWorkload{
	{
		name:         "sim-steady",
		scenario:     steadyScenario,
		shape:        simShape{warm: 105 * time.Second, window: 100 * time.Second, drain: 20 * time.Second},
		perTopologyS: 3,
	},
	{
		name:         "sim-knee",
		scenario:     kneeScenario,
		shape:        simShape{warm: 105 * time.Second, window: 40 * time.Second, drain: 10 * time.Second},
		perTopologyS: 6,
	},
	{
		name:         "sim-knee-cap",
		scenario:     kneeCapScenario,
		shape:        simShape{warm: 105 * time.Second, window: 40 * time.Second, drain: 10 * time.Second},
		perTopologyS: 6.25,
	},
	{
		name:         "sim-spam",
		scenario:     spamScenario,
		shape:        simShape{warm: 65 * time.Second, window: 20 * time.Second, drain: 10 * time.Second},
		perTopologyS: 16,
	},
}

// udpLoopback is the live workload's shape: 4 nodes, 50 msg/s network-wide
// (below the per-sender admission rate, so nothing is shed), 5 s windows.
var udpLoopback = udpShape{nodes: 4, rate: 50, window: 5 * time.Second, drain: 2 * time.Second}

// udpSessionS sizes a live run: a run of s seconds pools round(s/udpSessionS)
// sessions, at least three; each costs its cluster's convergence plus one
// window.
const udpSessionS = 6.25

// udpTracedWindow is the traced session's window: long enough for a p99 with
// ten samples beyond it.
const udpTracedWindow = 8 * time.Second

func workloads() map[string]workload {
	out := make(map[string]workload, len(simWorkloads)+1)
	for _, w := range simWorkloads {
		out[w.name] = workload{name: w.name, timed: w.timed, traced: w.traced}
	}
	out["udp-loopback"] = workload{
		name: "udp-loopback",
		timed: func(seed int64, seconds int) (outcome, error) {
			sessions := max(3, int(math.Round(float64(seconds)/udpSessionS)))
			return timedUDP(seed, sessions, udpLoopback)
		},
		traced: func(seed int64, spansDir string) (outcome, error) {
			return tracedUDP(seed, udpLoopback, spansDir)
		},
	}
	return out
}

// checkSim applies the output checks every simulated run must pass, timed
// or traced.
func checkSim(o *outcome, name string, badPayload int, violations []invariant.Violation, window ops) {
	if badPayload > 0 {
		o.fail("%s: %d acceptances carried a payload other than the one injected", name, badPayload)
	}
	for _, v := range violations {
		if v.Invariant == "agreement" {
			o.fail("%s: %s", name, v)
		}
	}
	if window.delivered == 0 {
		o.fail("%s: no message was delivered in the measured window", name)
	}
}

// quantileMetric returns the q-quantile of ascending samples, failing the
// run when too few samples lie beyond it.
func quantileMetric(o *outcome, name string, lat []float64, q float64) float64 {
	v, ok := percentile(lat, q)
	if !ok {
		o.fail("%s: %d latency samples are too few for p%g", name, len(lat), q*100)
	}
	return v
}

// timed runs the workload's topologies one simulation at a time through
// runner.Run and pools their windows. Counts are summed over the
// topologies; CPU times per simulated second are medians over every segment
// of every window, and CPU per delivery divides the process's median by the
// pooled deliveries per simulated second, which are exact per seed.
func (w simWorkload) timed(seed int64, seconds int) (outcome, error) {
	var o outcome
	var setups, heaps, lat, hostSegs, procSegs []float64
	var bytes, delivered, remote, windowAccepts, windowS float64
	for k := 0; k < w.topologies(seconds); k++ {
		sub := runner.ReplicateSeed(seed, k)
		r, err := timeSim(w.scenario(sub, w.shape), w.shape)
		if err != nil {
			return o, err
		}
		checkSim(&o, fmt.Sprintf("%s seed %d", w.name, sub), r.badPayload, r.result.Violations, r.ops)
		p50, _ := percentile(r.lat, 0.50)
		p99, _ := percentile(r.lat, 0.99)
		o.note("%s topology %d (seed %d): setup %.2f s, host %.2f ms/sim-s (segment median %.2f), cpu %.1f us/delivery, p50 %.1f ms, p99 %.1f ms, delivery %.4f, re-delivered ops %d, invariant violations %d, exact %+v",
			w.name, k, sub, r.setupS, r.hostMSPerS, median(r.hostSeg), r.cpuUSPerDel, p50, p99, r.ops.deliveryRatio(), r.ops.redelivered, len(r.result.Violations), r.exact)
		setups = append(setups, r.setupS)
		heaps = append(heaps, r.heapMB)
		lat = append(lat, r.lat...)
		hostSegs = append(hostSegs, r.hostSeg...)
		procSegs = append(procSegs, r.procSeg...)
		windowAccepts += float64(r.windowAccepts)
		windowS += w.shape.window.Seconds()
		bytes += float64(r.result.Phys.BytesOnAir)
		remote += float64(r.result.RemoteDeliveries)
		delivered += float64(r.ops.delivered)
		o.attempted += r.ops.attempted
		o.failed += r.ops.failed
	}
	sort.Float64s(lat)
	o.metrics = map[string]float64{
		"host_ms_per_sim_s":         median(hostSegs),
		"setup_s":                   median(setups),
		"delivery_ratio":            ratio(delivered, float64(o.attempted)),
		"latency_p50_ms":            quantileMetric(&o, w.name, lat, 0.50),
		"bytes_on_air_per_delivery": ratio(bytes, remote),
		"cpu_us_per_delivery":       ratio(median(procSegs)*1000, windowAccepts/windowS),
		"live_heap_mb":              median(heaps),
	}
	return o, nil
}

// traced times the first topology twice through runner.Run (their exact
// counters must match) and once through the traced harness (whose counters
// must match too), and reports per-layer metrics from the traced run.
func (w simWorkload) traced(seed int64, spansDir string) (outcome, error) {
	var o outcome
	sc := w.scenario(seed, w.shape)
	var reps [2]simRep
	for i := range reps {
		r, err := timeSim(sc, w.shape)
		if err != nil {
			return o, err
		}
		checkSim(&o, w.name, r.badPayload, r.result.Violations, r.ops)
		reps[i] = r
	}
	if reps[0].exact != reps[1].exact {
		o.fail("%s: nondeterministic: repetition counters %+v then %+v", w.name, reps[0].exact, reps[1].exact)
	}
	t, err := traceSim(sc, w.shape, maxKeptSpans)
	if err != nil {
		return o, err
	}
	if t.exact != reps[0].exact {
		o.fail("%s: the traced run diverged from runner.Run: %+v, want %+v", w.name, t.exact, reps[0].exact)
	}
	checkSim(&o, w.name+" traced", t.badPayload, t.violations, t.ops)
	if err := t.spans.write(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)); err != nil {
		return o, err
	}
	o.attempted, o.failed = reps[0].ops.attempted, reps[0].ops.failed
	o.metrics = t.layers
	o.metrics["latency_p99_ms"] = quantileMetric(&o, w.name, reps[0].lat, 0.99)
	o.metrics["trace.overhead_ms_per_sim_s"] = t.hostMSPerS - median([]float64{reps[0].hostMSPerS, reps[1].hostMSPerS})
	return o, nil
}

// checkUDP applies the output checks every live session must pass.
func checkUDP(o *outcome, s udpSession) {
	if s.badPayload > 0 {
		o.fail("udp-loopback: %d acceptances carried a payload other than the one injected", s.badPayload)
	}
	if s.ops.delivered == 0 {
		o.fail("udp-loopback: no message was delivered")
	}
}

// timedUDP runs the live cluster for the given number of sessions. Timings
// are medians over the sessions, so one session the host slowed down does
// not move them.
func timedUDP(seed int64, sessions int, sh udpShape) (outcome, error) {
	var o outcome
	var setups, heaps, hosts, cpus, p50s []float64
	var delivered, tapBytes float64
	for k := 0; k < sessions; k++ {
		s, err := runUDPSession(runner.ReplicateSeed(seed, k), sh, false)
		if err != nil {
			return o, err
		}
		checkUDP(&o, s)
		p50 := quantileMetric(&o, "udp-loopback", s.lat, 0.50)
		p99, _ := percentile(s.lat, 0.99)
		cpuMS := float64(s.cpu) / float64(time.Millisecond)
		o.note("udp-loopback session %d: setup %.2f s, cpu %.1f ms/s, p50 %.2f ms, p99 %.2f ms, worst lateness %.2f ms",
			k, s.setupS, cpuMS/s.wall.Seconds(), p50, p99, s.latenessM)
		setups = append(setups, s.setupS)
		heaps = append(heaps, s.heapMB)
		// Protocol time is wall time here, so the host cost of a protocol
		// second is the CPU it burns.
		hosts = append(hosts, cpuMS/s.wall.Seconds())
		cpus = append(cpus, ratio(cpuMS*1000, float64(s.ops.delivered)))
		p50s = append(p50s, p50)
		delivered += float64(s.ops.delivered)
		tapBytes += float64(s.tapBytes)
		o.attempted += s.ops.attempted
		o.failed += s.ops.failed
	}
	o.metrics = map[string]float64{
		"host_ms_per_sim_s":         median(hosts),
		"setup_s":                   median(setups),
		"delivery_ratio":            ratio(delivered, float64(o.attempted)),
		"latency_p50_ms":            median(p50s),
		"bytes_on_air_per_delivery": ratio(tapBytes, delivered),
		"cpu_us_per_delivery":       median(cpus),
		"live_heap_mb":              median(heaps),
	}
	return o, nil
}

// tracedUDP runs one untraced and one traced session of the same seed and
// reports the traced session's per-layer metrics.
func tracedUDP(seed int64, sh udpShape, spansDir string) (outcome, error) {
	var o outcome
	plain, err := runUDPSession(seed, sh, false)
	if err != nil {
		return o, err
	}
	long := sh
	long.window = udpTracedWindow
	s, err := runUDPSession(seed, long, true)
	if err != nil {
		return o, err
	}
	checkUDP(&o, plain)
	checkUDP(&o, s)
	if err := s.spans.write(spansDir, fmt.Sprintf("udp-loopback-seed%d.jsonl", seed)); err != nil {
		return o, err
	}
	host := func(r udpSession) float64 { return float64(r.cpu) / float64(time.Millisecond) / r.wall.Seconds() }
	o.attempted, o.failed = s.ops.attempted, s.ops.failed
	o.metrics = s.layers
	o.metrics["latency_p99_ms"] = quantileMetric(&o, "udp-loopback", s.lat, 0.99)
	o.metrics["trace.overhead_ms_per_sim_s"] = host(s) - host(plain)
	return o, nil
}
