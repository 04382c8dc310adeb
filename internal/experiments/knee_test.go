package experiments

import (
	"testing"

	"bbcast/internal/loadgen"
)

// TestE16QuickKnee pins the quick knee sweep's shape. The sweep is
// deterministic, so the knee's position is exact: delivery holds at 8 msg/s
// and breaks at 32 msg/s, while open-loop goodput still rises with offered
// load.
func TestE16QuickKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick knee sweep")
	}
	points := quickCfg().kneeSweep()

	knee := LocateKnee(points, KneeThreshold)
	if knee < 0 {
		t.Fatalf("no swept rate sustains delivery >= %.2f: %+v", KneeThreshold, points)
	}
	if p := points[knee]; p.OfferedRate != 8 || p.Arrival != loadgen.Poisson.String() {
		t.Errorf("knee at %g msg/s %s, want 8 msg/s poisson", p.OfferedRate, p.Arrival)
	}

	var open []KneePoint
	for _, p := range points {
		if p.OfferedRate > 0 {
			open = append(open, p)
		}
	}
	top := open[len(open)-1]
	if top.OfferedRate != 32 {
		t.Fatalf("top open-loop rate = %g msg/s, want 32", top.OfferedRate)
	}
	if top.DeliveryRatio >= KneeThreshold {
		t.Errorf("32 msg/s delivery = %.3f, want below the %.2f knee threshold", top.DeliveryRatio, KneeThreshold)
	}
	for i := 1; i < len(open); i++ {
		if open[i].GoodputMsgS <= open[i-1].GoodputMsgS {
			t.Errorf("goodput %.1f msg/s at %g msg/s does not exceed %.1f at %g msg/s",
				open[i].GoodputMsgS, open[i].OfferedRate, open[i-1].GoodputMsgS, open[i-1].OfferedRate)
		}
	}
}
