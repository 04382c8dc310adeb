//bbvet:wallclock codec timing: wall-clock cost of marshalling captured frames

package main

import (
	"fmt"
	"runtime"
	"time"

	"bbcast/internal/wire"
)

// codecKinds are the frame kinds whose codec cost is reported: together they
// are nearly every frame on the air.
var codecKinds = []wire.Kind{wire.KindData, wire.KindGossip, wire.KindRequest}

// codecPasses repeats each timing pass so one frame's cost is not lost in the
// clock's resolution.
const codecPasses = 20

// timeCodec times Marshal and Unmarshal over captured frames and reports the
// mean cost and size per kind. A frame that does not survive the round trip
// is an error.
func timeCodec(frames map[wire.Kind][]*wire.Packet) (map[string]float64, error) {
	out := map[string]float64{}
	for _, k := range codecKinds {
		name := k.String()
		pkts := frames[k]
		out["wire.marshal_ns."+name] = 0
		out["wire.unmarshal_ns."+name] = 0
		out["wire.bytes."+name] = 0
		if len(pkts) == 0 {
			continue
		}
		bufs := make([][]byte, len(pkts))
		size := 0
		for i, p := range pkts {
			bufs[i] = p.Marshal()
			size += len(bufs[i])
		}
		// A collection now leaves the timed loops headroom to allocate
		// without one.
		runtime.GC()
		start := time.Now()
		for pass := 0; pass < codecPasses; pass++ {
			for _, p := range pkts {
				sink = p.Marshal()
			}
		}
		marshal := time.Since(start)
		start = time.Now()
		for pass := 0; pass < codecPasses; pass++ {
			for _, b := range bufs {
				if _, err := wire.Unmarshal(b); err != nil {
					return nil, fmt.Errorf("wire: a marshalled %s frame does not decode: %w", name, err)
				}
			}
		}
		unmarshal := time.Since(start)
		n := float64(len(pkts) * codecPasses)
		out["wire.marshal_ns."+name] = float64(marshal) / n
		out["wire.unmarshal_ns."+name] = float64(unmarshal) / n
		out["wire.bytes."+name] = float64(size) / float64(len(pkts))
	}
	return out, nil
}

// sink keeps the compiler from discarding timed results.
var sink []byte
