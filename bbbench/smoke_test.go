package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySim is a shape small enough for unit tests: the overlay forms in the
// warm-up and the window still delivers.
var tinySim = simShape{warm: 20 * time.Second, window: 2 * segment, drain: 10 * time.Second}

// TestSimWorkloadsSmoke runs every simulated workload at tiny size through
// runner.Run and through the traced harness, which must agree exactly.
func TestSimWorkloadsSmoke(t *testing.T) {
	for _, w := range simWorkloads {
		t.Run(w.name, func(t *testing.T) {
			sc := w.scenario(3, tinySim)
			r, err := timeSim(sc, tinySim)
			if err != nil {
				t.Fatal(err)
			}
			var o outcome
			checkSim(&o, w.name, r.badPayload, r.result.Violations, r.ops)
			if len(o.problems) > 0 {
				t.Fatalf("output checks failed: %v", o.problems)
			}
			if r.hostMSPerS <= 0 || r.setupS <= 0 {
				t.Fatalf("host %g ms/sim-s, setup %g s: the window was not timed", r.hostMSPerS, r.setupS)
			}
			if len(r.hostSeg) != 2 || len(r.procSeg) != 2 || r.hostSeg[0] <= 0 || r.procSeg[1] < r.hostSeg[1] {
				t.Fatalf("segments host %v, process %v: want the window's two segments timed", r.hostSeg, r.procSeg)
			}
			tr, err := traceSim(sc, tinySim, 100)
			if err != nil {
				t.Fatal(err)
			}
			if tr.exact != r.exact {
				t.Fatalf("traced counters %+v, runner.Run %+v", tr.exact, r.exact)
			}
			if tr.layers["sim.events_per_sim_s"] <= 0 || tr.layers["core.handle_ns.data"] <= 0 {
				t.Fatalf("traced run recorded no layer work: %v", tr.layers)
			}
			if len(tr.spans.kept) != 100 {
				t.Fatalf("kept %d spans, want the first 100", len(tr.spans.kept))
			}
		})
	}
}

func TestUDPLoopbackSmoke(t *testing.T) {
	sh := udpLoopback
	sh.window = time.Second
	s, err := runUDPSession(5, sh, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.ops.attempted != 50*3 || s.ops.failed != 0 {
		t.Fatalf("ops = %+v, want 150 attempted and none failed", s.ops)
	}
	if s.tapBytes == 0 || s.cpu <= 0 || s.setupS <= 0 {
		t.Fatalf("tap bytes %d, cpu %v, setup %g s: the session was not measured", s.tapBytes, s.cpu, s.setupS)
	}
	for _, name := range []string{"sig.verify_ns", "transport.broadcast_ns", "wire.bytes.data"} {
		if s.layers[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, s.layers[name])
		}
	}
}

// TestCommandReportsEveryMetric drives the command end to end on its
// cheapest workload in both modes.
func TestCommandReportsEveryMetric(t *testing.T) {
	for _, tc := range []struct {
		trace string
		specs []metricSpec
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "sim-steady", "--seed", "2", "--seconds", "1", "--trace", tc.trace, "--spans", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d; stderr:\n%s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("trace %s: last line is not the report: %v", tc.trace, err)
		}
		if !rep.Correct || rep.Attempted == 0 || len(rep.Metrics) != len(tc.specs) {
			t.Fatalf("trace %s: report %+v", tc.trace, rep)
		}
		for _, s := range tc.specs {
			if m, ok := rep.Metrics[s.name]; !ok || m.Unit != s.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", tc.trace, s.name, m, s.unit)
			}
		}
	}
}

func TestCommandRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-steady", "--trace", "2"},
		{"--workload", "sim-steady", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no report", args, code, out.String())
		}
	}
}

// TestBenchmarkContractMatchesCommand keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestBenchmarkContractMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	all := workloads()
	for _, w := range contract.Workloads {
		if _, ok := all[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q the command does not run", w.Name)
		}
	}
	for _, tc := range []struct {
		listed []struct{ Name, Unit string }
		specs  []metricSpec
	}{{contract.EndToEnd, endToEnd}, {contract.PerLayer, perLayer}} {
		if len(tc.listed) != len(tc.specs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command prints %d", len(tc.listed), len(tc.specs))
		}
		for i, s := range tc.specs {
			if tc.listed[i].Name != s.name || tc.listed[i].Unit != s.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					i, tc.listed[i].Name, tc.listed[i].Unit, s.name, s.unit)
			}
		}
	}
}
