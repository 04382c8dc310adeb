// Command bbbench is the repository's benchmark. It runs one workload per
// invocation, checks the program's outputs, and prints every metric by name
// with its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root, which run.sh builds from):
//
//	bash bbbench/run.sh --workload sim-steady --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of timed runs; --trace 1 runs the
// traced harness and reports the per-layer metrics. The exit status is 0 when
// every output check passed, 1 when one failed, 2 on a usage or set-up error.
//
// # Workloads
//
// Every input comes from --seed: the topology, the schedule and the
// payloads. A simulated run pools several topologies, drawn from the seed
// with runner.ReplicateSeed, one simulation at a time through runner.Run;
// the live run pools several sessions of a fresh cluster.
//
//	sim-steady    DefaultScenario injecting throughout: the paper's operating
//	              point. The store stays far below its cap.
//	sim-knee      E16's shape at its knee, n=50, 25 Poisson senders at 16 msg/s.
//	              The store holds ~1.5k entries; the window starts once it
//	              has filled (PurgeTimeout + StoreQuiescence after load).
//	sim-knee-cap  sim-knee with MaxStore=256: the store sits at its cap and
//	              the cap's eviction path runs on every insertion. At
//	              MaxStore=1024 that path's scan of each node's whole store
//	              outgrew the cache, and its CPU time swung with the shared
//	              host's cache traffic: two sets of ten runs spread 16% and
//	              28% (quartile distance over median), five seeds 12-15%.
//	sim-spam      E14's adversaries (2 flooders, 1 replayer, 1 forge-spammer)
//	              at n=75 with MaxStore=1024. It is not in BENCHMARK.json:
//	              the flood delays 25-60% of honest deliveries past 300 ms,
//	              so the latency median jumps between ~60 ms and ~1 s from
//	              one topology to the next.
//	udp-loopback  four UDPNodes on 127.0.0.1 with Ed25519 keys, driven open
//	              loop at 50 msg/s round-robin from one goroutine. A passive
//	              tap in the broadcast domain counts the bytes on the air.
//
// Seed 1 is the default seed; seed 7 is held out, so a claim made while
// tuning on seed 1 can be checked on a seed nobody tuned on.
//
// # Metrics
//
// host_ms_per_sim_s is host CPU time per second of protocol time: the
// simulation thread's CPU time per simulated second (wall time would also
// count what the host's other tenants take from it), and on the live cluster
// the process's CPU time per wall second. cpu_us_per_delivery is the
// process's CPU time, garbage collector included, per delivery in the
// window. On the simulated workloads CPU time per simulated second is the
// median over the 10 s segments of every window of the run, so a burst of
// contention on the shared host moves a few segments and not the figure;
// cpu_us_per_delivery is the process's median divided by the run's
// deliveries per simulated second. On the live cluster both are medians
// over its sessions.
//
// latency_p50_ms runs from when an injection was due to its acceptance. The
// p99 is reported with the per-layer metrics: on the live cluster it moves
// with the host's scheduling by tens of percent from run to run, too much to
// gate.
//
// # Output checks
//
// A run fails when an accepted payload differs from the one injected under
// that id, when the invariant checker reports an agreement violation, when a
// window delivers nothing, when a percentile has fewer than ten samples
// beyond it, when two runs of one simulation disagree on an exact counter,
// or when the traced harness disagrees with runner.Run. One op is one
// (message, eligible receiver) pair of the measured window; it fails when
// the receiver never accepts the message or accepts it twice.
//
// # Known defect
//
// With the store capped, early tombstone eviction lets replays and late
// duplicates be accepted again: sim-spam reports at-most-once violations
// for the flooders' messages at most seeds. The benchmark counts such
// re-deliveries of window messages as failed ops and leaves the defect
// visible.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by timed runs.
var endToEnd = []metricSpec{
	{"host_ms_per_sim_s", "ms"},
	{"setup_s", "s"},
	{"delivery_ratio", "ratio"},
	{"latency_p50_ms", "ms"},
	{"bytes_on_air_per_delivery", "B"},
	{"cpu_us_per_delivery", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by traced runs. A
// workload that never enters a layer reports it as 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"sim.events_per_sim_s", "1/s"},
		{"sim.self_ns_per_event", "ns"},
		{"radio.tx_per_sim_s", "1/s"},
		{"radio.rx_per_tx", "ratio"},
		{"radio.collisions_per_tx", "ratio"},
		{"mac.deferrals_per_tx", "ratio"},
		{"mac.drops", "count"},
		{"mac.queue_wait_ms_p50", "ms"},
		{"mac.queue_wait_ms_p99", "ms"},
	}
	for _, k := range handledKinds {
		specs = append(specs, metricSpec{"core.handle_ns." + k.String(), "ns"})
	}
	for _, task := range timerTasks {
		specs = append(specs, metricSpec{"core.timer_ms_per_sim_s." + task, "ms"})
	}
	specs = append(specs,
		metricSpec{"core.broadcast_ns", "ns"},
		metricSpec{"core.dedup_skips_per_rx", "ratio"},
		metricSpec{"core.rate_limited_per_rx", "ratio"},
		metricSpec{"core.evictions_per_sim_s", "1/s"},
		metricSpec{"core.duplicates_per_accept", "ratio"},
		metricSpec{"core.forwarded_per_accept", "ratio"},
		metricSpec{"core.gossips_per_sim_s", "1/s"},
		metricSpec{"core.requests_per_sim_s", "1/s"},
		metricSpec{"core.recovery_share", "ratio"},
		metricSpec{"core.store_occupancy_max", "ratio"},
		metricSpec{"sig.verify_ns", "ns"},
		metricSpec{"sig.sign_ns", "ns"},
		metricSpec{"sig.verifies_per_delivery", "ratio"},
		metricSpec{"sig.signs_per_inject", "ratio"},
		metricSpec{"sig.verify_fail_share", "ratio"},
		metricSpec{"obsv.calls_per_event", "ratio"},
		metricSpec{"obsv.ms_per_sim_s", "ms"},
	)
	for _, k := range codecKinds {
		specs = append(specs,
			metricSpec{"wire.marshal_ns." + k.String(), "ns"},
			metricSpec{"wire.unmarshal_ns." + k.String(), "ns"},
			metricSpec{"wire.bytes." + k.String(), "B"},
		)
	}
	return append(specs,
		metricSpec{"transport.broadcast_ns", "ns"},
		metricSpec{"transport.rx_per_delivery", "ratio"},
		metricSpec{"transport.ingress_drops", "count"},
		metricSpec{"loadgen.lateness_ms_max", "ms"},
		metricSpec{"latency_p99_ms", "ms"},
		metricSpec{"trace.overhead_ms_per_sim_s", "ms"},
	)
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := workloads()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", names))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 30, "run length: how many topologies or sessions a timed run pools")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of timed runs; 1: per-layer metrics of a traced run")
	spans := fs.String("spans", ".bench_build/spans", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := all[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}

	var o outcome
	var err error
	specs := endToEnd
	if *trace == 0 {
		o, err = w.timed(*seed, *seconds)
	} else {
		specs = perLayer
		o, err = w.traced(*seed, *spans)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bbbench: %s: %v\n", w.name, err)
		return 2
	}
	rep := report{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, s := range specs {
		v := o.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Correct = false
			o.fail("%s: %s is not a finite number", w.name, s.name)
			v = 0
		}
		rep.Metrics[s.name] = value{Value: v, Unit: s.unit}
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", s.name, v, s.unit)
	}
	fmt.Fprintf(stdout, "%-34s %16d / %d\n", "ops failed / attempted", o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Fprintf(stderr, "bbbench: %s\n", n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "bbbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "bbbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}
